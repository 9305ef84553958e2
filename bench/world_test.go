package main

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/stats"
)

// streamDigest replays n operations of a workload with every exchange
// acknowledged at once and digests the requests.
func streamDigest(t *testing.T, w *world, wl *workload, n int) [32]byte {
	t.Helper()
	g := newOpGen(w, wl, newModel(w), streamPaced, "127.0.0.1:1")
	h := sha256.New()
	var o op
	for i := 0; i < n; i++ {
		g.next(uint64(i), &o)
		h.Write(o.request)
		g.finish(&o, true)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameWorldAndStream(t *testing.T) {
	wl := findWorkload("gateway_mixed")
	a, err := newWorld(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newWorld(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newWorld(8, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.rulesJSON, b.rulesJSON) || !reflect.DeepEqual(a.userIDs, b.userIDs) ||
		!reflect.DeepEqual(a.afflict, b.afflict) || !reflect.DeepEqual(a.providers, b.providers) {
		t.Fatal("same seed, different world")
	}
	for i := range a.pages {
		if a.pages[i].html != b.pages[i].html || !reflect.DeepEqual(a.pages[i].objects, b.pages[i].objects) {
			t.Fatalf("same seed, page %d differs", i)
		}
	}
	if bytes.Equal(a.rulesJSON, c.rulesJSON) && a.pages[0].html == c.pages[0].html {
		t.Fatal("different seed, same world")
	}
	if streamDigest(t, a, wl, 600) != streamDigest(t, b, wl, 600) {
		t.Fatal("same seed, different op stream")
	}
	if streamDigest(t, a, wl, 600) == streamDigest(t, c, wl, 600) {
		t.Fatal("different seed, same op stream")
	}
}

func TestWorldShape(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w, err := newWorld(seed, 500)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(w.pages) != numPages || len(w.providers) == 0 {
			t.Fatalf("seed %d: %d pages, %d providers", seed, len(w.pages), len(w.providers))
		}
		for i, p := range w.pages {
			if len(p.html) != pageBytes[i%3] {
				t.Errorf("seed %d page %s: %d bytes, want %d", seed, p.path, len(p.html), pageBytes[i%3])
			}
			if len(p.objects) != reportObjects {
				t.Errorf("seed %d page %s: %d objects, want %d", seed, p.path, len(p.objects), reportObjects)
			}
			if !strings.HasSuffix(p.html, "</body>\n</html>\n") {
				t.Errorf("seed %d page %s: padding broke the document end", seed, p.path)
			}
		}
		afflicted := 0
		for _, a := range w.afflict {
			if a >= 0 {
				afflicted++
			}
		}
		if afflicted < 50 || afflicted > 150 {
			t.Errorf("seed %d: %d of 500 users afflicted, want about %d %%", seed, afflicted, afflictedPct)
		}
	}
}

// TestLoadsAndTheMADCriterion pins the property the per-user model rests
// on: a healthy load has no violator, a pending user's load has exactly the
// provider, and an active user's load (from the mirror) has none again.
func TestLoadsAndTheMADCriterion(t *testing.T) {
	// 201 and 205 are seeds whose site has a provider with large objects
	// only, which the throughput criterion cannot single out.
	for seed := int64(1); seed <= 40; seed++ {
		loadsAndTheMADCriterion(t, seed)
	}
	loadsAndTheMADCriterion(t, 201)
	loadsAndTheMADCriterion(t, 205)
}

func loadsAndTheMADCriterion(t *testing.T, seed int64) {
	w, err := newWorld(seed, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := newRNG(uint64(seed), 99)
	var lt loadTimes
	var rep report.Report
	violators := func(p *page, prov int, st uint32) []string {
		drawLoad(&lt, p, r, prov, st)
		fillReport(&rep, "u", p, &lt, 1)
		var out []string
		for _, v := range core.DetectViolators(report.GroupByServer(&rep), stats.DefaultMADMultiplier) {
			out = append(out, v.Server.Hosts...)
		}
		return out
	}
	for round := 0; round < 5; round++ {
		for _, p := range w.pages {
			if v := violators(p, -1, stHealthy); len(v) != 0 {
				t.Fatalf("seed %d: healthy load of %s has violators %v", seed, p.path, v)
			}
			for k, pr := range w.providers {
				if !p.hasFrag[k] {
					continue
				}
				if v := violators(p, k, stPending); len(v) != 1 || v[0] != pr.host {
					t.Fatalf("seed %d: pending load of %s: violators %v, want [%s]", seed, p.path, v, pr.host)
				}
				if v := violators(p, k, stActive); len(v) != 0 {
					t.Fatalf("seed %d: active load of %s has violators %v", seed, p.path, v)
				}
			}
		}
	}
}

func TestReportEncodingsAgree(t *testing.T) {
	w, err := newWorld(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := newRNG(5, 1)
	var lt loadTimes
	var want report.Report
	for i, p := range w.pages {
		st, prov := stHealthy, -1
		if p.hasFrag[0] {
			prov, st = 0, []uint32{stPending, stActive}[i%2]
		}
		drawLoad(&lt, p, r, prov, st)
		fillReport(&want, "user-x", p, &lt, 42)
		fromJSON, err := report.Decode(appendReportJSON(nil, "user-x", p, &lt, 42))
		if err != nil {
			t.Fatalf("%s: hand-built JSON does not decode: %v", p.path, err)
		}
		fromBinary, err := report.UnmarshalBinary(want.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*report.Report{fromJSON, fromBinary} {
			if got.UserID != want.UserID || got.Page != want.Page || got.GeneratedAtUnixMs != 42 || len(got.Entries) != len(want.Entries) {
				t.Fatalf("%s: decoded header differs: %+v", p.path, got)
			}
			for k := range want.Entries {
				g, e := got.Entries[k], want.Entries[k]
				if g.URL != e.URL || g.ServerAddr != e.ServerAddr || g.SizeBytes != e.SizeBytes || g.DurationMillis != e.DurationMillis || g.Kind != e.Kind {
					t.Fatalf("%s entry %d: %+v, want %+v", p.path, k, g, e)
				}
			}
		}
	}
}
