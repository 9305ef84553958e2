package report

// The count gates: the JSON decoder's worst cases held by the work a decode
// does, not by how long it takes. A fastDecoder counts, in its work, the
// bytes its scans walk, its table probes and the bytes they hash, and the
// bytes its continuation and template matches compare (decode.go); these
// gates decode rotating_test.go's bodies with one fresh decoder and hold
// each decode's work to a bound stated as a fraction of its body.
//
// Every gate runs under fresh intern hash seeds, the intern and template
// tables emptied first, until five seeds were clean: no bucket of either
// table is sent more of the decoded tokens than it has ways, so nothing the
// rotation names is ever evicted and every count is the same on every clean
// seed (eachSeed checks that, and the gates log those counts). Under a seed
// that is not clean, tokens that share an overfull bucket evict each other
// and are met as new again, which changes the counts; the bounds that do not
// rest on what the tables hold are checked under it too.

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"testing"
)

// decodeCost is one measured decode: its work and the shape of its body.
type decodeCost struct {
	work
	body, page, urls, first int // bytes: the body, its page name, its entries' URLs, its first entry
	entries, templated      int // entries, and those decoded from the page's template
}

// countCase is one rotation as the gates decode it: warm first, then every
// body of measure, each costed.
type countCase struct {
	name          string
	warm, measure [][]byte
}

// countCases are the steady rotation, and the churn, reorder and new-page
// rotations after it. The steady rotation is decoded 64 times first, enough
// for every page to record its template (a decoder records one from the
// first of every templateEvery reports that could). The churn and reorder
// rotations are decoded once more before the measured pass.
func countCases(t *testing.T, names ...string) []countCase {
	steady, _ := rotatingBodies(t, 12)
	var warm [][]byte
	for range 64 {
		warm = append(warm, steady...)
	}
	warm = slices.Clip(warm)
	churn, reorder := churnBodies(t, 12), reorderBodies(t, 12)
	pages := newPageBodies(t, 12)
	var fresh [][]byte
	for i := range 12 {
		fresh = append(fresh, bytes.Clone(pages.body(i)))
	}
	var cases []countCase
	for _, c := range []countCase{
		{"steady", warm, steady},
		{"churn", append(warm, churn...), churn},
		{"reorder", append(warm, reorder...), reorder},
		{"newpage", warm, fresh},
	} {
		if slices.Contains(names, c.name) {
			cases = append(cases, c)
		}
	}
	return cases
}

// measure decodes c with a fresh decoder, the tables emptied, and returns
// what each body of c.measure cost.
func measure(t *testing.T, c countCase) []decodeCost {
	resetInternTable()
	d, r := new(fastDecoder), new(Report)
	for i, body := range c.warm {
		if !d.decode(body, r) {
			t.Fatalf("%s: warm body %d left the fast path", c.name, i)
		}
	}
	costs := make([]decodeCost, len(c.measure))
	for i, body := range c.measure {
		d.w = work{}
		if !d.decode(body, r) {
			t.Fatalf("%s: body %d left the fast path", c.name, i)
		}
		k := decodeCost{work: d.w, body: len(body), page: len(r.Page), entries: len(r.Entries), templated: d.tm.hits}
		for _, e := range r.Entries {
			k.urls += len(e.URL)
		}
		at := bytes.Index(body, []byte(`"entries":[`)) + len(`"entries":[`)
		k.first = bytes.IndexByte(body[at:], '}') + 1
		costs[i] = k
	}
	return costs
}

// tokensOf returns the distinct strings the decoder interns from cases'
// bodies, and their pages.
func tokensOf(t *testing.T, cases []countCase) (tokens, pages []string) {
	seen := map[string]bool{}
	add := func(list *[]string, s string) {
		if s != "" && len(s) <= maxInternLen && !seen[s] {
			seen[s] = true
			*list = append(*list, s)
		}
	}
	for _, c := range cases {
		for _, body := range append(slices.Clip(c.warm), c.measure...) {
			r, err := referenceDecode(body)
			if err != nil {
				t.Fatal(err)
			}
			add(&pages, r.Page)
			for _, e := range r.Entries {
				add(&tokens, e.URL)
				add(&tokens, e.ServerAddr)
				add(&tokens, e.InitiatorURL)
				if !slices.Contains([]ObjectKind{KindScript, KindImage, KindCSS, KindHTML, KindOther}, e.Kind) {
					add(&tokens, string(e.Kind))
				}
			}
		}
	}
	return append(tokens, pages...), pages
}

// seedIsClean reports whether, under the current seed, no intern bucket is
// sent more than internWays of tokens and no template bucket more than
// templateWays of pages.
func seedIsClean(tokens, pages []string) bool {
	over := func(list []string, buckets uint64, ways int) bool {
		n := map[uint64]int{}
		for _, s := range list {
			b := maphash.String(internSeed, s) & (buckets - 1)
			if n[b]++; n[b] > ways {
				return true
			}
		}
		return false
	}
	return !over(tokens, internBuckets, internWays) && !over(pages, templateBuckets, templateWays)
}

// eachSeed costs the named cases under fresh intern hash seeds until five
// were clean (at most 64 seeds). bad names what is wrong with one body's
// cost under a seed, clean or not, or returns ""; eachSeed fails the test
// once per case and seed with the count of such bodies and the first. The
// costs of clean seeds must agree; eachSeed returns them.
func eachSeed(t *testing.T, names []string, bad func(k decodeCost, clean bool) string) map[string][]decodeCost {
	saved := internSeed
	t.Cleanup(func() { internSeed = saved; resetInternTable() })
	cases := countCases(t, names...)
	tokens, pages := tokensOf(t, cases)
	want := map[string][]decodeCost{}
	for seeds, clean := 0, 0; clean < 5; seeds++ {
		if seeds == 64 {
			t.Fatalf("%d of 64 intern hash seeds were clean, want 5", clean)
		}
		internSeed = maphash.MakeSeed()
		ok := seedIsClean(tokens, pages)
		for _, c := range cases {
			costs := measure(t, c)
			n, first := 0, ""
			for i, k := range costs {
				if msg := bad(k, ok); msg != "" {
					if n++; n == 1 {
						first = fmt.Sprintf("body %d: %s", i, msg)
					}
				}
			}
			if n > 0 {
				t.Errorf("%s, seed %d (clean %v): %d of %d bodies fail; first, %s", c.name, seeds, ok, n, len(costs), first)
			}
			if prev, seen := want[c.name]; ok && seen && !slices.Equal(prev, costs) {
				t.Errorf("%s: two clean seeds cost the rotation differently: the counts depend on more than the bodies", c.name)
			} else if ok {
				want[c.name] = costs
			}
		}
		if ok {
			clean++
		}
	}
	return want
}

// frac is n as a fraction of k's body.
func (k decodeCost) frac(n int) float64 { return float64(n) / float64(k.body) }

// maxOf is the largest f(k) over costs.
func maxOf(costs []decodeCost, f func(k decodeCost) float64) float64 {
	m := 0.0
	for _, k := range costs {
		m = max(m, f(k))
	}
	return m
}

// TestTemplatedReportHashesOnlyItsPage: a report decoded whole from its
// page's template hashes only its page name, 23 of its ≈ 6,050 bytes (0.0038
// of the body), in two probes: the page's intern probe and its template
// lookup. No entry's URL is hashed or probed. On a clean seed every report
// of the steady rotation is templated.
func TestTemplatedReportHashesOnlyItsPage(t *testing.T) {
	want := eachSeed(t, []string{"steady"}, func(k decodeCost, clean bool) string {
		if k.templated == k.entries && (k.hashed > k.page || k.probes != 2) {
			return fmt.Sprintf("templated, hashed %d bytes (%.4f of its body) in %d probes, want its page name's %d (%.4f) in 2",
				k.hashed, k.frac(k.hashed), k.probes, k.page, k.frac(k.page))
		}
		if clean && k.templated != k.entries {
			return fmt.Sprintf("%d of %d entries from its template under a clean seed", k.templated, k.entries)
		}
		return ""
	})
	costs := want["steady"]
	t.Logf("steady: %d reports, all templated; hashed ≤ %.4f of a body (the page name), %d probes a report; scanned ≤ %.4f, held ≤ %.4f, failed ≤ %.4f of a body",
		len(costs), maxOf(costs, func(k decodeCost) float64 { return k.frac(k.hashed) }), costs[0].probes,
		maxOf(costs, func(k decodeCost) float64 { return k.frac(k.scanned) }),
		maxOf(costs, func(k decodeCost) float64 { return k.frac(k.held) }),
		maxOf(costs, func(k decodeCost) float64 { return k.frac(k.failed) }))
}

// TestNoBodyByteIsScannedTwice: in every rotation, what a decode scans and
// what its matches that held compared add up to at most its body (1.00 of
// it): no byte is walked twice, whatever missed. The churn rotation, whose
// every entry mismatches its URL's continuation, is the one a decoder that
// re-scans after a miss fails.
func TestNoBodyByteIsScannedTwice(t *testing.T) {
	names := []string{"steady", "churn", "reorder", "newpage"}
	want := eachSeed(t, names, func(k decodeCost, _ bool) string {
		if k.scanned+k.held > k.body {
			return fmt.Sprintf("scanned %d and held %d bytes, %.4f of its %d, want at most 1.00", k.scanned, k.held, k.frac(k.scanned+k.held), k.body)
		}
		return ""
	})
	// Each churn report's first entry matches its template's URL but not the
	// URL's continuation; the decode resumes past the URL, so its failed
	// compares stay within 2,560 bytes. Scanning the entry again from its
	// start would hash the URL and compare its head a second time: 2,686.
	if f := maxOf(want["churn"], func(k decodeCost) float64 { return float64(k.failed) }); f > 2560 {
		t.Errorf("churn: failed matches compared %.0f bytes of a report, want at most 2560", f)
	}
	for _, name := range names {
		costs := want[name]
		t.Logf("%s: %d bodies; scanned + held ≤ %.4f of a body (scanned ≤ %.4f), failed ≤ %.4f, hashed ≤ %.4f",
			name, len(costs),
			maxOf(costs, func(k decodeCost) float64 { return k.frac(k.scanned + k.held) }),
			maxOf(costs, func(k decodeCost) float64 { return k.frac(k.scanned) }),
			maxOf(costs, func(k decodeCost) float64 { return k.frac(k.failed) }),
			maxOf(costs, func(k decodeCost) float64 { return k.frac(k.hashed) }))
	}
}

// TestFailedTemplateCostsOneEntry: a report of the reorder rotation meets
// its page's template from another rotation and mismatches it in the first
// entry; that costs at most the first entry's bytes (about 1/40 of the
// body), because the first mismatch drops the template for the rest of the
// report. Each entry then repeats its URL's continuation, so nothing else
// fails.
func TestFailedTemplateCostsOneEntry(t *testing.T) {
	want := eachSeed(t, []string{"reorder"}, func(k decodeCost, _ bool) string {
		if k.failed > k.first {
			return fmt.Sprintf("failed matches compared %d bytes (%.4f of its body), want at most its first entry's %d (%.4f)",
				k.failed, k.frac(k.failed), k.first, k.frac(k.first))
		}
		return ""
	})
	costs, missed := want["reorder"], 0
	for _, k := range costs {
		if k.failed > 0 {
			missed++
		}
	}
	t.Logf("reorder: %d reports, %d missed their template; failed ≤ %.4f of a body, ≤ %.2f of the first entry",
		len(costs), missed, maxOf(costs, func(k decodeCost) float64 { return k.frac(k.failed) }),
		maxOf(costs, func(k decodeCost) float64 { return float64(k.failed) / float64(k.first) }))
}

// TestNewPageCostsOneProbe: a report under a page never sent before costs
// the page one intern probe and no template lookup or compare: it probes
// once for the page and once for each entry's URL, and hashes nothing else
// (≈ 0.36 of the body), on a clean seed. On every seed no match fails and
// no entry comes from a template.
func TestNewPageCostsOneProbe(t *testing.T) {
	want := eachSeed(t, []string{"newpage"}, func(k decodeCost, clean bool) string {
		if k.failed != 0 || k.templated != 0 {
			return fmt.Sprintf("%d entries from a template, %d bytes in failed matches, want none", k.templated, k.failed)
		}
		if clean && (k.probes != 1+k.entries || k.hashed != k.page+k.urls) {
			return fmt.Sprintf("%d probes hashing %d bytes (%.4f of its body), want 1 + %d hashing the page name and the URLs, %d (%.4f)",
				k.probes, k.hashed, k.frac(k.hashed), k.entries, k.page+k.urls, k.frac(k.page+k.urls))
		}
		return ""
	})
	costs := want["newpage"]
	t.Logf("newpage: %d reports; %d probes a report for %d entries, hashed ≤ %.4f of a body (the page name and the URLs), failed 0",
		len(costs), costs[0].probes, costs[0].entries, maxOf(costs, func(k decodeCost) float64 { return k.frac(k.hashed) }))
}
