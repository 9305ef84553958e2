//go:build !race

package report

// The race detector's instrumentation allocates, so this file is built
// without it; scripts/verify.sh runs the gate by name.

import (
	"runtime"
	"testing"
)

// TestDecodeSteadyStateAllocs gates what a pooled decode allocates per
// 40-entry report when the traffic is a site's, not one page's: 12 distinct
// reports in rotation, in each wire format. Measured 1 allocation: the
// userId, which is not interned. The table's hash is seeded per process, so
// about one process in five puts five of the rotation's 536 strings into one
// bucket of four, and those five then evict each other: +0.8 per decode for
// each such bucket, hence the ceiling of 3. A string-reuse scheme that only
// works when consecutive reports are alike reads 82 here.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	jsonBodies, binBodies := rotatingBodies(t, 12)
	for _, tc := range []struct {
		name   string
		bodies [][]byte
		decode func([]byte) (*Report, error)
	}{
		{"JSON", jsonBodies, DecodePooled},
		{"OAKRPT1", binBodies, DecodeBinaryPooled},
	} {
		resetInternTable()
		i := 0
		run := func() {
			r, err := tc.decode(tc.bodies[i%len(tc.bodies)])
			if err != nil {
				t.Fatal(err)
			}
			i++
			r.Release()
		}
		for k := 0; k < 2*len(tc.bodies); k++ {
			run() // fill the table
		}
		got := testing.AllocsPerRun(1200, run)
		t.Logf("%s: %.2f allocs per decode", tc.name, got)
		if got > 3 {
			t.Errorf("%s: %.2f allocs per rotating decode, want at most 3", tc.name, got)
		}
	}
}

// TestContinuationFloodIsBounded is the continuation's adversary: one URL,
// 20,000 entries of it, each with a sizeBytes never sent before, so every
// entry after the first mismatches the continuation its URL holds. Every
// decode must equal encoding/json's; the URL keeps one entry of at most
// maxInternLen bytes; a mismatch replaces the continuation once in
// replaceEvery, so an entry costs 2/replaceEvery allocations and the
// report's userId one more; and the live heap is where it was.
func TestContinuationFloodIsBounded(t *testing.T) {
	const url, reports, perReport = "http://flood.example/one.js", 500, 40
	bodies := make([][]byte, reports)
	for k := range bodies {
		rep := &Report{UserID: "flood-user", Page: "/flood"}
		for i := 0; i < perReport; i++ {
			rep.Entries = append(rep.Entries, Entry{URL: url, ServerAddr: "10.0.0.1:443",
				SizeBytes: int64(k*perReport + i), DurationMillis: 12.5, Kind: KindScript})
		}
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = data
	}
	resetInternTable()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, data := range bodies {
		got, err := DecodePooled(data)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	runtime.ReadMemStats(&ms)
	allocs := float64(ms.Mallocs-mallocs) / reports
	grown := int64(live()) - int64(before)
	for _, data := range bodies[:3] {
		want, err := referenceDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(data); err != nil || !equalDecoded(want, got) {
			t.Fatalf("decode differs from encoding/json (err %v)", err)
		}
	}
	_, e, _ := internFind([]byte(url))
	if e == nil || e.cont.seen == 0 || len(e.s) > maxInternLen {
		t.Fatalf("the URL's entry %+v: want one holding a continuation within %d bytes", e, maxInternLen)
	}
	perEntry := allocs / perReport
	t.Logf("%.2f allocations per %d-entry report, %.3f per entry; live heap grew %d bytes", allocs, perReport, perEntry, grown)
	if max := 2.0/replaceEvery + 1.0/perReport + 0.01; perEntry > max {
		t.Errorf("%.3f allocations per entry, want at most %.3f", perEntry, max)
	}
	if grown > 64<<10 {
		t.Errorf("live heap grew %d bytes across the flood, want at most 64 KB", grown)
	}
}

// TestTemplateFloodIsBounded is the template table's adversary in
// allocations: the rotation's reports, each under a page no report named
// before (newPageBodies). Every decode must equal encoding/json's. A report
// costs its userId and its new page's intern entry (two allocations), and
// looks up and records no template: a page met for the first time has none.
// A new page also drops the oldest entry of its intern bucket, and a URL
// dropped that way costs four allocations when it is met again and records
// its continuation anew. Measured 3.46–3.57 per report, and 4.28 in one
// process of eight, whose seeded hash put five of the rotation's strings in
// one bucket (see TestDecodeSteadyStateAllocs): hence the ceiling of 5,
// which a decoder recording a template for every new page (+2) exceeds. The
// live heap grows by what the intern table keeps, under its megabyte.
func TestTemplateFloodIsBounded(t *testing.T) {
	const reports = 6000
	jsonBodies, _ := rotatingBodies(t, 12)
	pages := newPageBodies(t, 12)
	resetInternTable()
	for k := 0; k < 3*len(jsonBodies); k++ {
		r, err := DecodePooled(jsonBodies[k%len(jsonBodies)])
		if err != nil {
			t.Fatal(err)
		}
		r.Release() // the rotation's vocabulary and continuations
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for k := 0; k < reports; k++ {
		got, err := DecodePooled(pages.body(k))
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	runtime.ReadMemStats(&ms)
	allocs := float64(ms.Mallocs-mallocs) / reports
	grown := int64(live()) - int64(before)
	for k := 0; k < 3; k++ {
		data := pages.body(k)
		want, err := referenceDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(data); err != nil || !equalDecoded(want, got) {
			t.Fatalf("decode differs from encoding/json (err %v)", err)
		}
	}
	t.Logf("%.2f allocations per new-page report; live heap grew %d bytes", allocs, grown)
	if allocs > 5 {
		t.Errorf("%.2f allocations per report, want at most 5", allocs)
	}
	if grown > 1<<20 {
		t.Errorf("live heap grew %d bytes across the flood, want at most 1 MB", grown)
	}
}
