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
