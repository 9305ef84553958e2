//go:build !race

package core

// The race detector's instrumentation allocates and keeps shadow memory, so
// this file is built without it.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"oak/internal/report"
	"oak/internal/rules"
)

// TestServingRetainsNoPerUserState: the rewrite cache is the only memory the
// serve path keeps. 400 users with four activations each, served on twelve
// paths, may grow the heap by what the rewrite cache holds plus 1 MB of
// slack — no per-user, per-path state that -profile-cache-bytes cannot see.
// The byte-capped row serves resident and spilled users alike and holds the
// growth against what the cap counts (ResidentBytes).
func TestServingRetainsNoPerUserState(t *testing.T) {
	const (
		users = 400
		paths = 12
		slack = 1 << 20
	)
	rs := benchServeRules(4)
	page := benchServePage(rs)
	for _, row := range []struct {
		name     string
		maxBytes int64
	}{
		{"uncapped", 0},
		{"byte-capped", 192 << 10},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := []Option{WithRewriteCache(1024), WithShards(8)}
			if row.maxBytes > 0 {
				opts = append(opts, WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxBytes: row.maxBytes}))
			}
			e, err := NewEngine(rs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for u := 0; u < users; u++ {
				uid := fmt.Sprintf("user-%03d", u)
				if _, err := e.HandleReport(activatingReport(rs, uid)); err != nil {
					t.Fatal(err)
				}
				if n := len(e.ActiveRules(uid, "/p0.html")); n != len(rs) {
					t.Fatalf("%s has %d active rules, want %d", uid, n, len(rs))
				}
			}
			serveAll := func() {
				for u := 0; u < users; u++ {
					uid := fmt.Sprintf("user-%03d", u)
					for p := 0; p < paths; p++ {
						if rw := e.RewritePage(uid, fmt.Sprintf("/p%d.html", p), page); len(rw.Applied) != len(rs) {
							t.Fatalf("%s: %d rules applied, want %d", uid, len(rw.Applied), len(rs))
						}
					}
				}
			}
			before := liveHeap()
			serveAll()
			serveAll()
			growth := liveHeap() - before
			cache := e.RewriteCacheStats().Bytes
			t.Logf("heap growth %.3f MB after %d users × %d paths; rewrite cache %.3f MB",
				float64(growth)/(1<<20), users, paths, float64(cache)/(1<<20))
			if growth > cache+slack {
				t.Errorf("serving grew the live heap by %d bytes, over the rewrite cache's %d + %d: the serve path keeps per-user state",
					growth, cache, slack)
			}
			if row.maxBytes > 0 {
				st, _ := e.SpillStatus()
				t.Logf("byte cap %d: %d resident (%d bytes counted), %d spilled",
					row.maxBytes, st.ProfilesResident, st.ResidentBytes, st.ProfilesSpilled)
				if st.ProfilesSpilled == 0 {
					t.Fatal("no user spilled: the row serves no spilled user")
				}
				if uncounted := growth - cache; uncounted > st.ResidentBytes+slack {
					t.Errorf("serving kept %d bytes the byte cap cannot see, against %d it counts resident",
						uncounted, st.ResidentBytes)
				}
			}
			runtime.KeepAlive(e)
		})
	}
}

// TestActivationViewAllocatesNothing: a serve derives its activation view
// into a stack buffer, so deriving one — here through ActivationFingerprint,
// for one activation and for eight — allocates nothing.
func TestActivationViewAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, viewBufLen} {
		rs := benchServeRules(n)
		e, err := NewEngine(rs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.HandleReport(activatingReport(rs, "u1")); err != nil {
			t.Fatal(err)
		}
		if got := len(e.ActiveRules("u1", "/index.html")); got != n {
			t.Fatalf("%d active rules, want %d", got, n)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if e.ActivationFingerprint("u1", "/index.html") == 0 {
				t.Fatal("fingerprint 0 for an activated user")
			}
		}); allocs != 0 {
			t.Errorf("%d activations: deriving the view allocates %v/call, want 0", n, allocs)
		}
	}
}

// activatingReport is a report that activates every rule of rs for uid:
// each rule's host is slow against twice as many healthy peers.
func activatingReport(rs []*rules.Rule, uid string) *report.Report {
	times := map[string]float64{}
	for i := 0; i < 2*len(rs); i++ {
		times[fmt.Sprintf("peer%d.example", i)] = 100 + float64(i)
	}
	for _, r := range rs {
		host := strings.SplitN(strings.SplitN(r.Default, "//", 2)[1], "/", 2)[0]
		times[host] = 2000
	}
	return loadReport(uid, times)
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
