package report

import (
	"bytes"
	"fmt"
	"testing"
)

// rotatingReports builds n distinct reports of 40 entries each, shaped like
// the traffic a deployed site sees: every page has its own objects, served
// by 12 of the site's 40 provider hosts (adPerf, PAPERS.md: third-party
// objects concentrate in a small, repeating set of providers). A decoder that
// reuses strings only when consecutive reports are the same page gains
// nothing here; one that knows the site's vocabulary gains almost everything.
func rotatingReports(n int) []*Report {
	reps := make([]*Report, n)
	for p := range reps {
		rep := &Report{
			UserID:            fmt.Sprintf("rot-user-%04d", p*37),
			Page:              fmt.Sprintf("/section-%d/page-%02d.html", p%3, p),
			GeneratedAtUnixMs: 1700000000000 + int64(p),
		}
		for i := 0; i < 40; i++ {
			h := (p*7 + i%12) % 40 // each page embeds 12 of the site's 40 providers
			rep.Entries = append(rep.Entries, Entry{
				URL:            fmt.Sprintf("http://static%02d.provider-%02d.example/p%02d/asset-%04d.js", h%4, h, p, i),
				ServerAddr:     fmt.Sprintf("10.%d.%d.1:443", h/8, h%8),
				SizeBytes:      20000 + int64(p*40+i),
				DurationMillis: 80 + float64((p+i)%23) + 0.125*float64(i%8),
				Kind:           []ObjectKind{KindScript, KindImage, KindCSS, KindOther}[i%4],
			})
		}
		reps[p] = rep
	}
	return reps
}

// rotatingBodies encodes rotatingReports(n) in both wire formats.
func rotatingBodies(tb testing.TB, n int) (jsonBodies, binBodies [][]byte) {
	for _, rep := range rotatingReports(n) {
		j, err := rep.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		b, err := rep.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		jsonBodies, binBodies = append(jsonBodies, j), append(binBodies, b)
	}
	return jsonBodies, binBodies
}

// churnBodies is the JSON rotation in 32 variants, each with every entry's
// sizeBytes moved by its variant's number, variant after variant: an entry
// meets the continuation some other variant of it recorded, and mismatches
// it, in all but one decode in 32.
func churnBodies(tb testing.TB, n int) [][]byte {
	var bodies [][]byte
	for v := range 32 {
		for _, rep := range rotatingReports(n) {
			for i := range rep.Entries {
				rep.Entries[i].SizeBytes += int64(v)
			}
			j, err := rep.Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, j)
		}
	}
	return bodies
}

// reorderBodies is the JSON rotation in 40 variants, each with every
// report's entries rotated by its variant's number, variant after variant:
// a report meets a template its page recorded from another variant, and
// mismatches it in the first entry, while each entry repeats its URL's
// continuation.
func reorderBodies(tb testing.TB, n int) [][]byte {
	var bodies [][]byte
	for v := range 40 {
		for _, rep := range rotatingReports(n) {
			k := v % len(rep.Entries)
			rep.Entries = append(rep.Entries[k:], rep.Entries[:k]...)
			j, err := rep.Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, j)
		}
	}
	return bodies
}

// newPages is the JSON rotation with every report's page renamed, before
// each decode, to a page no report named before, so no report meets a
// template: the worst case of a decoder that looks templates up, and could
// record one, for every page it is sent.
type newPages struct {
	bodies [][]byte
	at     []int // where each body's page number sits
	next   uint64
}

const newPagePrefix = "/new/page-"

func newPageBodies(tb testing.TB, n int) *newPages {
	p := &newPages{}
	for _, rep := range rotatingReports(n) {
		rep.Page = newPagePrefix + "0000000000"
		j, err := rep.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		p.bodies = append(p.bodies, j)
		p.at = append(p.at, bytes.Index(j, []byte(newPagePrefix))+len(newPagePrefix))
	}
	return p
}

// body returns the i-th body, named for the next new page.
func (p *newPages) body(i int) []byte {
	k := i % len(p.bodies)
	b, v := p.bodies[k], p.next
	p.next++
	for d := p.at[k] + 9; d >= p.at[k]; d-- {
		b[d], v = byte('0'+v%10), v/10
	}
	return b
}

// BenchmarkDecodeRotating is the pooled decode of 12 rotating 40-entry
// reports: the cost the benchmark's report.decode_json_us and
// report.decode_binary_us read. JSON-churn is the JSON decoder's worst
// case for continuations: every entry mismatches its continuation and
// records a new one. JSON-reorder and JSON-newpage are its worst cases for
// templates: every report mismatches its page's template in the first
// entry, or names a page never sent before. The count gates
// (counts_test.go) hold what these worst cases cost; the benchmark only
// times them.
func BenchmarkDecodeRotating(b *testing.B) {
	jsonBodies, binBodies := rotatingBodies(b, 12)
	from := func(bodies [][]byte) func(int) []byte {
		return func(i int) []byte { return bodies[i%len(bodies)] }
	}
	for _, tc := range []struct {
		name   string
		body   func(int) []byte
		decode func([]byte) (*Report, error)
	}{
		{"JSON", from(jsonBodies), DecodePooled},
		{"JSON-churn", from(churnBodies(b, 12)), DecodePooled},
		{"JSON-reorder", from(reorderBodies(b, 12)), DecodePooled},
		{"JSON-newpage", newPageBodies(b, 12).body, DecodePooled},
		{"Binary", from(binBodies), DecodeBinaryPooled},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := tc.decode(tc.body(i))
				if err != nil {
					b.Fatal(err)
				}
				r.Release()
			}
		})
	}
}
