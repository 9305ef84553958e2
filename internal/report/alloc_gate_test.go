//go:build !race

package report

// The race detector's instrumentation allocates, so this file is built
// without it; scripts/verify.sh runs the gate by name.

import "testing"

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
