package gateway

// The gateway's transport judged from the socket, against a reference: every
// case scripts a raw TCP server, and the same two sequential exchanges run
// through the transport and through net/http's Transport. What the caller
// sees — status, headers, body, error or not — must agree, and the server
// must have seen the expected number of connections: one when the first
// exchange left its connection fit for the second, two when it did not.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedServer accepts TCP connections and, for every request head it can
// parse off one, lets the case's script write whatever bytes it likes.
type scriptedServer struct {
	l     net.Listener
	conns atomic.Int64
	done  chan struct{} // closed when the case is over: releases scripts that hold a connection open
	wg    sync.WaitGroup

	mu   sync.Mutex
	open []net.Conn // every connection accepted, closed by stop
}

// script answers one request on c. It returns false to close the connection.
// The request body is unread; a script that wants the connection reused
// drains it.
type script func(s *scriptedServer, c net.Conn, req *http.Request) (keepOpen bool)

func startScripted(t *testing.T, answer script) *scriptedServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{l: l, done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			s.mu.Lock()
			s.open = append(s.open, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil || !answer(s, c, req) {
						return
					}
				}
			}()
		}
	}()
	return s
}

func (s *scriptedServer) stop() {
	close(s.done)
	s.l.Close()
	s.mu.Lock()
	for _, c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// raw writes a canned response and keeps the connection open.
func raw(response string) script {
	return func(_ *scriptedServer, c net.Conn, req *http.Request) bool {
		_, _ = io.Copy(io.Discard, req.Body)
		_, err := io.WriteString(c, response)
		return err == nil
	}
}

// thenClose is raw, but the server closes the connection after answering.
func thenClose(response string) script {
	return func(s *scriptedServer, c net.Conn, req *http.Request) bool {
		raw(response)(s, c, req)
		return false
	}
}

// outcome is what a caller saw of one exchange.
type outcome struct {
	Status        int
	Header        http.Header
	ContentLength int64
	Body          string
	Failed        bool // RoundTrip or the body read returned an error
	Err           error
}

func (o outcome) String() string {
	return fmt.Sprintf("status %d, length %d, %d body bytes, header %v, failed %v (%v)", o.Status, o.ContentLength, len(o.Body), o.Header, o.Failed, o.Err)
}

type conformanceCase struct {
	name    string
	method  string
	body    int // request body bytes; 0 sends none
	answer  script
	timeout time.Duration // context deadline of each exchange; 0 is 10 s
	// cancelAfter, when > 0, cancels the context once that many body bytes
	// have been read.
	cancelAfter int
	// settle is a pause between the two exchanges, for what only the
	// reference's background read loop can notice.
	settle time.Duration

	wantConns  int64 // 0: not asserted
	wantFailed bool
	wantErr    error // matched with errors.Is when set
}

func TestTransportAgreesWithNetHTTP(t *testing.T) {
	big := strings.Repeat("h", 2<<20)
	cases := []conformanceCase{
		{name: "content-length", method: "POST", body: 1500,
			answer: raw("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello"), wantConns: 1},
		{name: "chunked", method: "GET",
			answer: raw("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Oak-Hint: a\r\n\r\n3\r\nhel\r\n2\r\nlo\r\n0\r\n\r\n"), wantConns: 1},
		{name: "close-delimited", method: "GET",
			answer: thenClose("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\nuntil the end"), wantConns: 2},
		{name: "connection close", method: "GET",
			answer: thenClose("HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"), wantConns: 2},
		{name: "100 continue then final", method: "POST", body: 10,
			answer: raw("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ndone"), wantConns: 1},
		{name: "204", method: "POST", body: 10,
			answer: raw("HTTP/1.1 204 No Content\r\n\r\n"), wantConns: 1},
		{name: "204 with content-length", method: "POST", body: 10,
			answer: raw("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"), wantConns: 1},
		{name: "304", method: "GET",
			answer: raw("HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n"), wantConns: 1},
		{name: "304 with content-length", method: "GET",
			answer: raw("HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\nContent-Length: 4096\r\n\r\n"), wantConns: 1},
		{name: "HEAD with content-length", method: "HEAD",
			answer: raw("HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n"), wantConns: 1},
		// Whether the connection survives depends on the body writer having
		// returned by the time the answer is read; either is right.
		{name: "1 MB body drained", method: "POST", body: 1 << 20,
			answer: raw("HTTP/1.1 204 No Content\r\n\r\n")},
		{name: "early 503, 6 MB body unread", method: "POST", body: 6 << 20,
			answer: func(s *scriptedServer, c net.Conn, _ *http.Request) bool {
				_, _ = io.WriteString(c, "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n")
				<-s.done // never drains: the rest of the body has nowhere to go
				return false
			}, wantConns: 2},
		{name: "body cut mid-way", method: "GET",
			answer: thenClose("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly this much"), wantConns: 2, wantFailed: true},
		{name: "stray bytes after a response", method: "GET", settle: 50 * time.Millisecond,
			answer: raw("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokSTRAY"), wantConns: 2},
		{name: "2 MB response head", method: "GET",
			answer: thenClose("HTTP/1.1 200 OK\r\nX-Big: " + big + "\r\nContent-Length: 2\r\n\r\nok"), wantConns: 2, wantFailed: true},
		{name: "head trickled past the deadline", method: "GET", timeout: 150 * time.Millisecond,
			answer: func(s *scriptedServer, c net.Conn, _ *http.Request) bool {
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nX-Slow: ")
				for {
					select {
					case <-s.done:
						return false
					case <-time.After(10 * time.Millisecond):
					}
					if _, err := io.WriteString(c, "z"); err != nil {
						return false
					}
				}
			}, wantConns: 2, wantFailed: true, wantErr: context.DeadlineExceeded},
		{name: "cancel mid-body", method: "GET", cancelAfter: 4,
			answer: func(s *scriptedServer, c net.Conn, _ *http.Request) bool {
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\nhalf")
				<-s.done
				return false
			}, wantConns: 2, wantFailed: true, wantErr: context.Canceled},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ours := newTransport()
			defer ours.close()
			reference := &http.Transport{DisableCompression: true, MaxResponseHeaderBytes: maxResponseHead}
			defer reference.CloseIdleConnections()

			got, gotConns := runCase(t, tc, ours)
			want, wantConns := runCase(t, tc, reference)
			for i := range got {
				if !sameOutcome(got[i], want[i]) {
					t.Errorf("exchange %d:\n  transport: %v\n  net/http:  %v", i+1, got[i], want[i])
				}
				if got[i].Failed != tc.wantFailed {
					t.Errorf("exchange %d: failed %v (%v), want failed %v", i+1, got[i].Failed, got[i].Err, tc.wantFailed)
				}
				if tc.wantErr != nil && !errors.Is(got[i].Err, tc.wantErr) {
					t.Errorf("exchange %d: error %v, want %v", i+1, got[i].Err, tc.wantErr)
				}
			}
			if tc.wantConns != 0 && (gotConns != tc.wantConns || wantConns != tc.wantConns) {
				t.Errorf("connections for two exchanges: transport %d, net/http %d, want %d", gotConns, wantConns, tc.wantConns)
			}
		})
	}
}

// sameOutcome compares what two callers saw. Errors agree when both failed;
// their texts are each implementation's own.
func sameOutcome(a, b outcome) bool {
	return a.Status == b.Status && a.ContentLength == b.ContentLength && a.Body == b.Body &&
		a.Failed == b.Failed && reflect.DeepEqual(a.Header, b.Header)
}

// runCase runs the case's exchange twice, one after the other, through rt
// against a fresh scripted server, and reports both outcomes and how many
// connections the server accepted.
func runCase(t *testing.T, tc conformanceCase, rt http.RoundTripper) ([2]outcome, int64) {
	t.Helper()
	srv := startScripted(t, tc.answer)
	defer srv.stop()
	hc := &http.Client{Transport: rt}
	payload := bytes.Repeat([]byte("r"), tc.body)
	var out [2]outcome
	for i := range out {
		if i > 0 {
			time.Sleep(tc.settle)
		}
		out[i] = exchangeOnce(t, tc, hc, "http://"+srv.l.Addr().String()+"/page", payload)
	}
	return out, srv.conns.Load()
}

func exchangeOnce(t *testing.T, tc conformanceCase, hc *http.Client, url string, payload []byte) outcome {
	t.Helper()
	timeout := tc.timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var body io.Reader
	if len(payload) > 0 {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, tc.method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{Failed: true, Err: err}
	}
	defer resp.Body.Close()
	o := outcome{Status: resp.StatusCode, Header: resp.Header, ContentLength: resp.ContentLength}
	var read []byte
	if tc.cancelAfter > 0 {
		read = make([]byte, tc.cancelAfter)
		if _, err = io.ReadFull(resp.Body, read); err == nil {
			cancel()
			_, err = io.ReadAll(resp.Body)
		}
	} else {
		read, err = io.ReadAll(resp.Body)
	}
	o.Body, o.Failed, o.Err = string(read), err != nil, err
	return o
}

// TestTransportOverTLS: an https backend is dialled with TLS and spoken to
// in HTTP/1.1 over a kept connection.
func TestTransportOverTLS(t *testing.T) {
	var conns atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %d %d", r.Proto, len(body), r.TLS.Version)
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	backend.StartTLS()
	defer backend.Close()

	tr := newTransport()
	defer tr.close()
	roots := x509.NewCertPool()
	roots.AddCert(backend.Certificate())
	tr.tlsDialer.Config.RootCAs = roots
	hc := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		resp, err := hc.Post(backend.URL+"/oak/v1/report", "application/json", strings.NewReader(`{"userId":"u"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("HTTP/1.1 14 %d", tls.VersionTLS13); string(body) != want {
			t.Errorf("exchange %d: backend saw %q, want %q", i, body, want)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("three exchanges used %d TLS connections, want 1", n)
	}
}
