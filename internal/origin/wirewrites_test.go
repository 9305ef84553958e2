package origin

import (
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"oak/internal/core"
	"oak/internal/rules"
)

// countingListener counts the Write calls made on every connection it
// accepts: one per write(2) the server makes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// serveCounting serves h on a loopback listener that counts conn writes.
func serveCounting(t *testing.T, h http.Handler) (url string, writes *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes = new(atomic.Int64)
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(countingListener{ln, writes}) }()
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String(), writes
}

// TestSegmentedBodyTakesTheSameConnWrites: a page written segment by
// segment reaches the socket in as many writes as the same bytes written
// with one io.WriteString — net/http's response buffers coalesce the
// segments — for the untouched page and for a rewritten 128 KB page whose
// body is dozens of segments.
func TestSegmentedBodyTakesTheSameConnWrites(t *testing.T) {
	def := `<img src="http://slow.example/x.png">`
	var b strings.Builder
	b.WriteString("<html>")
	for b.Len() < 128<<10 {
		b.WriteString(strings.Repeat("<p>filler</p>", 40))
		b.WriteString(def)
	}
	b.WriteString("</html>")
	page := b.String()

	engine, err := core.NewEngine([]*rules.Rule{swapRule()})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := NewServer(engine)
	srv.SetPage("/big.html", page)
	oakURL, oakWrites := serveCounting(t, srv)
	postReport(t, oakURL, "activated")

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	get := func(url, user string, writes *atomic.Int64) (*http.Response, string, int64) {
		t.Helper()
		writes.Store(0)
		req, _ := http.NewRequest(http.MethodGet, url+"/big.html", nil)
		req.AddCookie(&http.Cookie{Name: CookieName, Value: user})
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body), writes.Load()
	}

	for _, user := range []string{"healthy", "activated"} {
		resp, body, n := get(oakURL, user, oakWrites)
		plan, _ := engine.ServePage(user, engine.Page("/big.html"), true)
		if rewritten := body != page; rewritten != (user == "activated") || len(plan.Segments) < 2 && user == "activated" {
			t.Fatalf("%s: rewritten %v, %d segments", user, rewritten, len(plan.Segments))
		}
		// The reference: the same headers, the same bytes, one write.
		ref, refWrites := serveCounting(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for k, v := range resp.Header {
				if k != "Date" {
					w.Header()[k] = v
				}
			}
			_, _ = io.WriteString(w, body)
		}))
		refResp, refBody, refN := get(ref, user, refWrites)
		if refBody != body || refResp.ContentLength != resp.ContentLength {
			t.Fatalf("%s: the reference served %d bytes, oak %d", user, len(refBody), len(body))
		}
		t.Logf("%s: %d segments, %d bytes, %d conn writes (one io.WriteString: %d)", user, len(plan.Segments), len(body), n, refN)
		if n != refN {
			t.Errorf("%s: %d conn writes, one io.WriteString of the same bytes takes %d", user, n, refN)
		}
	}
}
