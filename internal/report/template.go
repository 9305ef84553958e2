package report

import (
	"slices"
	"sync/atomic"
)

// The template table: for a page, the URL intern entries of the last report
// recorded for it, in order. Loads of one page fetch the same objects in the
// same order, so the JSON decoder tries entry i of a report whose "page"
// comes before its "entries" against entry i of the page's template: the
// bytes `{"url":"` + the URL + `"`, then the URL's continuation (decode.go).
// A repeated entry then costs three compares and a float parse, with no URL
// scan, no hash and no table probe. The first entry that does not match
// drops the template for the rest of the report, and those entries are
// decoded as before. A report the template did not cover may record a new
// one, if every entry's URL is known, written as `{"url":"` + its token +
// `"` and followed by a continuation the entry matched or recorded: a
// template is then a record of bytes and what they decode to, so equal
// bytes in equal decoder state still decode equally. A page met for the
// first time — one the intern table did not hold — is not looked up and
// records nothing, as a URL met once records no continuation.
//
// Like the intern table it is a cache: templateBuckets buckets of
// templateWays templates, indexed by the page's intern hash, each an
// immutable value behind an atomic pointer; a lookup takes no lock and a
// publication is plain stores, so two decoders racing on one bucket may lose
// one of their templates and nothing else. A template holds at most
// maxTemplateLen entries, and a page longer than that has its first
// maxTemplateLen templated. A template may keep intern entries alive that
// the intern table has since replaced or dropped: matching one is still
// correct, as an entry is a record too. So the table and everything it
// keeps alive stay under templateBuckets*templateWays*(48+maxInternLen+
// maxTemplateLen*(8+48+maxInternLen)) bytes plus 1 KB of pointers — 1.8 MB
// — on top of the intern table's 884 KB, whatever the traffic;
// TestTemplateTableIsBounded asserts it.
const (
	templateBuckets = 32 // a power of two
	templateWays    = 4
	maxTemplateLen  = 64
	// templateEvery: a decoder records a template from the first of every
	// templateEvery reports it meets that their page's template did not
	// cover. A page whose loads differ does not pay two allocations on every
	// report, and one whose loads changed for good learns the new order
	// within about templateEvery of its reports.
	templateEvery = 16
)

// template is one page's entry list. page is an intern table string.
type template struct {
	hash uint64
	page string
	urls []*internEntry
}

type templateBucket [templateWays]atomic.Pointer[template]

var templateTable [templateBuckets]templateBucket

// findTemplate returns the bucket of page, whose intern hash is h, and,
// when it holds one, page's template.
func findTemplate(page string, h uint64) (b *templateBucket, t *template) {
	b = &templateTable[h&(templateBuckets-1)]
	for way := range b {
		if t = b[way].Load(); t != nil && t.hash == h && t.page == page {
			return b, t
		}
	}
	return b, nil
}

// publish records urls as page's template, the bucket's newest. It drops
// the page's previous template if the bucket still holds one, else the
// bucket's oldest.
func (b *templateBucket) publish(h uint64, page string, urls []*internEntry) {
	t := &template{hash: h, page: page, urls: slices.Clone(urls)}
	way := templateWays - 1
	for w := range b {
		if old := b[w].Load(); old != nil && old.hash == h && old.page == page {
			way = w
			break
		}
	}
	for ; way > 0; way-- {
		b[way].Store(b[way-1].Load())
	}
	b[0].Store(t)
}
