package gateway_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oak"
	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/rules"
)

// The edge cache's adversaries. One is generated: many users on many pages
// through a gateway whose cache is far too small, while reports activate
// rules, the clock expires them and the primary dies — every page must be
// what the backend that answered renders for that user at that instant.
// The other is a backend that answers 304 wrongly in each way there is.

// TestEdgeCacheUnderChurn drives 64 clients × 4 users × 12 pages through a
// two-backend gateway whose edge cache holds 2 variants per path and about
// a dozen of the 24 live variants in all, so variants are evicted between
// offer and answer all the time. Each backend has a twin engine fed the same reports on the same
// virtual clock; a page is right when it is byte for byte the twin's render.
// The clock moves only between rounds, and a client is the only sender for
// its users, so that render is determinate. Mid-way through one round the
// backend owning arc 0 is killed: from then on its users are served by the
// other backend — which knows nothing of them — and must get exactly what
// that backend's twin renders, never a page from the dead backend's
// variants unless the live one names it.
func TestEdgeCacheUnderChurn(t *testing.T) {
	const (
		clients   = 64
		usersEach = 4
		rounds    = 8
		opsEach   = 10
		killRound = 4
	)
	pages := map[string]string{}
	var paths []string
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/page-%02d.html", i)
		paths = append(paths, path)
		pages[path] = variantPage(path, (4+2*(i%4))<<10) // 4–10 KB
	}

	// Backends and their twins share one clock, so an activation made in a
	// round has the same expiry on both.
	clock := newVirtualClock()
	build := func() *oak.Engine {
		e, err := oak.NewEngine([]*oak.Rule{variantRule(t)}, oak.WithClock(clock.Now), oak.WithRewriteCache(1024))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	var backends [2]*httptest.Server
	var twins [2]*oak.Engine
	for i := range backends {
		srv := oak.NewServer(build())
		for path, html := range pages {
			srv.SetPage(path, html)
		}
		backends[i] = httptest.NewServer(srv)
		defer backends[i].Close()
		twins[i] = build()
	}
	gw, err := gateway.NewGateway(gateway.Config{
		Backends: []string{backends[0].URL, backends[1].URL},
		Retry:    client.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.SetEdgeBounds(2, 100<<10)
	front := httptest.NewServer(gw)
	defer front.Close()
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer httpc.CloseIdleConnections()

	do := func(method, path, user, body string) (*http.Response, string, error) {
		req, err := http.NewRequest(method, front.URL+path, strings.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
		resp, err := httpc.Do(req)
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		return resp, string(got), err
	}

	arcs := core.EqualRanges(2)
	var dead atomic.Bool // backend 0 is gone
	var pagesServed, thisRound atomic.Int64
	for round := 0; round < rounds; round++ {
		killing := round == killRound
		thisRound.Store(0)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*clients + c)))
				for op := 0; op < opsEach; op++ {
					user := fmt.Sprintf("churn-%d-%d", c, rng.Intn(usersEach))
					path := paths[rng.Intn(len(paths))]
					arc := core.RangeFor(user, arcs)
					// Who answers this user: its owner, or backend 1 once
					// backend 0 is dead. While backend 0 is being killed
					// either may, so its users send no reports that round.
					serving := []int{arc}
					if arc == 0 && dead.Load() {
						serving = []int{1}
					} else if arc == 0 && killing {
						serving = []int{0, 1}
					}
					if rng.Intn(5) == 0 && len(serving) == 1 {
						body := slowReport(user, path)
						resp, _, err := do(http.MethodPost, oak.ReportPathV1, user, body)
						if err != nil || resp.StatusCode != http.StatusNoContent {
							t.Errorf("round %d: report as %s: %v %v", round, user, resp, err)
							return
						}
						rep, err := oak.UnmarshalReport([]byte(body))
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := twins[serving[0]].HandleReport(rep); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					resp, body, err := do(http.MethodGet, path, user, "")
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("round %d: %s as %s: %v %v", round, path, user, resp, err)
						return
					}
					pagesServed.Add(1)
					thisRound.Add(1)
					right := false
					for _, i := range serving {
						want := twins[i].RewritePage(user, path, pages[path])
						if body == want.HTML && resp.Header.Get(rules.CacheHintHeader) == want.Hint {
							right = true
						}
					}
					if !right || body == "" || resp.Header.Get("ETag") != core.ContentTag(body) {
						t.Errorf("round %d: %s as %s (arc %d, served by %v): %d bytes, rewritten %v, %s %q, ETag %q — not that user's page",
							round, path, user, arc, serving, len(body), body != pages[path], rules.CacheHintHeader, resp.Header.Get(rules.CacheHintHeader), resp.Header.Get("ETag"))
						return
					}
				}
			}(c)
		}
		if killing {
			// Mid-round, with exchanges in flight.
			for thisRound.Load() < clients && !t.Failed() {
				runtime.Gosched()
			}
			backends[0].CloseClientConnections()
			backends[0].Close()
		}
		wg.Wait()
		if killing {
			dead.Store(true)
		}
		if t.Failed() {
			return
		}
		// Activations live for a little under three rounds.
		clock.Advance(variantRuleTTL * 2 / 5)
	}

	es := edgeStats(t, front.URL)
	t.Logf("%d pages: edge cache %+v", pagesServed.Load(), es)
	if es.Refetches == 0 || es.Evictions == 0 || es.Hits == 0 {
		t.Errorf("edge cache %+v: the run never evicted a variant between offer and answer; it proved nothing", es)
	}
	if es.Variants > 2*int64(len(paths)) || es.Bytes > 100<<10 {
		t.Errorf("edge cache %+v exceeds its bounds (2 per path, 100 KB)", es)
	}
}

// TestWrong304IsNeverABlankPage: a backend that answers 304 naming a tag the
// edge does not hold, naming none, or when nothing was offered at all, costs
// one refetch without If-None-Match — and when even that is answered 304 the
// forward has failed: failover, else 502. Never an empty 200, never a 304 to
// a client that offered nothing.
func TestWrong304IsNeverABlankPage(t *testing.T) {
	const page = "<html>the page</html>"
	tag := core.ContentTag(page)
	for _, tc := range []struct {
		name string
		// answer304 decides, per request, whether the backend says 304 and
		// under which ETag ("" sends none).
		answer304     func(ifNoneMatch string) (bool, string)
		wantStatus    int
		wantRefetches uint64
	}{
		{"names a tag the edge does not hold", func(inm string) (bool, string) { return inm != "", `"ffffffffffffffffffffffffffffffff"` }, http.StatusOK, 1},
		{"names no tag", func(inm string) (bool, string) { return inm != "", "" }, http.StatusOK, 1},
		{"unasked, every time", func(string) (bool, string) { return true, tag }, http.StatusBadGateway, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var unconditional atomic.Int64
			bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inm := r.Header.Get("If-None-Match")
				if inm == "" {
					unconditional.Add(1)
				}
				if say304, etag := tc.answer304(inm); say304 {
					if etag != "" {
						w.Header().Set("ETag", etag)
					}
					w.WriteHeader(http.StatusNotModified)
					return
				}
				w.Header().Set("ETag", tag)
				w.Header().Set("Content-Type", "text/html; charset=utf-8")
				_, _ = io.WriteString(w, page)
			})
			_, gw := fronted(t, bad)
			// Twice: the first GET offers nothing, the second offers what the
			// first one filled.
			for i := 0; i < 2; i++ {
				resp, body := exchange(t, http.MethodGet, gw.URL+"/index.html", "u", "", "")
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("GET %d: status %d, want %d", i, resp.StatusCode, tc.wantStatus)
				}
				if tc.wantStatus == http.StatusOK && (body != page || resp.Header.Get("ETag") != tag) {
					t.Fatalf("GET %d: body %q, ETag %q", i, body, resp.Header.Get("ETag"))
				}
			}
			if got := edgeStats(t, gw.URL); got.Refetches != tc.wantRefetches {
				t.Errorf("edge cache %+v, want %d refetches", got, tc.wantRefetches)
			}
			if unconditional.Load() < 2 {
				t.Errorf("backend saw %d unconditional GETs, want the refetches among them", unconditional.Load())
			}
		})
	}

	// With somewhere to fail over to, the unaskable backend costs a failover,
	// not the page.
	always304 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	}))
	defer always304.Close()
	engine, err := oak.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	sane := oak.NewServer(engine)
	sane.SetPage("/index.html", page)
	sanets := httptest.NewServer(sane)
	defer sanets.Close()
	g, err := gateway.NewGateway(gateway.Config{Backends: []string{always304.URL}, Standby: sanets.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	front := httptest.NewServer(g)
	defer front.Close()
	resp, body := exchange(t, http.MethodGet, front.URL+"/index.html", "u", "", "")
	if resp.StatusCode != http.StatusOK || body != page {
		t.Errorf("with a standby: status %d, body %q, want the page from the standby", resp.StatusCode, body)
	}
}
