package report

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// resetInternTable empties the process-wide intern and template tables.
// Tests that depend on what the tables hold call it first; none of them runs
// in parallel.
func resetInternTable() {
	for i := range internTable {
		for w := range internTable[i] {
			internTable[i][w].Store(nil)
		}
	}
	for i := range templateTable {
		for w := range templateTable[i] {
			templateTable[i][w].Store(nil)
		}
	}
}

// internRetained walks the table: how many entries it holds, how many of
// them carry a continuation, and how many string bytes they keep alive — the
// token, a host url.Parse had to build and a continuation's runs, all of
// them in the entry's one string.
func internRetained(t *testing.T) (entries, conts, bytes int) {
	for i := range internTable {
		for w := range internTable[i] {
			e := internTable[i][w].Load()
			if e == nil {
				continue
			}
			entries++
			if e.cont.seen != 0 {
				conts++
			}
			if len(e.s) > maxInternLen {
				t.Errorf("entry %q (host %q) keeps %d bytes, cap %d", e.token(), e.hostname(), len(e.s), maxInternLen)
			}
			bytes += len(e.s)
		}
	}
	return entries, conts, bytes
}

// floodReport is one report of n entries whose strings are all unique to
// (round, i): tokens padded to exactly the length cap, which the table takes
// and which cost it the most; URLs whose host only url.Parse can find
// (userinfo, so the host is a second string), with and without room for it
// under the cap; tokens past the cap that the table must not keep; and short
// URLs whose entries, decoded a second time, leave a continuation that fills
// the cap to the byte.
func floodReport(round, n int) *Report {
	pad := func(s string, n int) string { return s + strings.Repeat("p", n-len(s)) }
	rep := &Report{UserID: fmt.Sprintf("flood-%d", round), Page: fmt.Sprintf("/flood/%d", round)}
	for i := 0; i < n; i++ {
		e := Entry{
			URL:          pad(fmt.Sprintf("http://h%d-%d.example/o/", round, i), maxInternLen),
			ServerAddr:   pad(fmt.Sprintf("10.%d.%d.%d:", round%250, i/250, i%250), maxInternLen),
			InitiatorURL: pad(fmt.Sprintf("http://site.example/r%d/i%d/", round, i), maxInternLen),
			Kind:         ObjectKind(fmt.Sprintf("kind-%d-%d", round, i)),
			SizeBytes:    int64(i),
		}
		switch i % 5 {
		case 1:
			e.URL = fmt.Sprintf("http://user:pw@parsed%d-%d.example/", round, i)
		case 2:
			e.URL = pad(fmt.Sprintf("http://long%d-%d.example/", round, i), 4<<10)
			e.InitiatorURL = e.URL
		case 3:
			e.URL = pad(fmt.Sprintf("http://u%d-%d:pw@edge.example/", round, i), maxInternLen-8)
		case 4:
			e.ServerAddr, e.InitiatorURL = fmt.Sprintf("10.%d.%d", round, i), ""
			head := len(`,"serverAddr":"","sizeBytes":,"durationMillis":`) + len(e.ServerAddr) + len(fmt.Sprint(e.SizeBytes))
			tail := len(`,"kind":""}`) + len(e.Kind)
			e.URL = pad(fmt.Sprintf("http://c%d-%d.example/", round, i), maxInternLen-head-tail)
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep
}

// TestInternTableIsBounded is the table as an adversary would use it: a
// flood of reports made of unique tokens, over-length tokens and one 4 MB
// URL, in both wire formats, each JSON body decoded twice so that the
// entries with room for one record a continuation. Every decode must equal
// encoding/json's, and when the flood is over the table holds at most its
// fixed number of entries, each a 48-byte struct keeping at most
// maxInternLen bytes, continuations included, and the process's live heap
// has grown by less than the megabyte OPERATIONS.md promises.
func TestInternTableIsBounded(t *testing.T) {
	if size := unsafe.Sizeof(internEntry{}); size != 48 {
		t.Fatalf("an intern entry is %d bytes; the table's bound counts 48", size)
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

	const rounds, perReport = 400, 50 // 20,000 entries, five times the table
	for round := 0; round < rounds; round++ {
		rep := floodReport(round, perReport)
		if round == rounds/2 {
			rep.Entries[0].URL = "http://huge.example/" + strings.Repeat("z", 4<<20)
		}
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			got, err := DecodePooled(data)
			if err != nil || !equalDecoded(want, got) {
				t.Fatalf("round %d: JSON decode differs from encoding/json (err %v)", round, err)
			}
			got.Release()
		}
		if round == rounds/2 {
			continue // past MaxBinaryStringLen: OAKRPT1 cannot carry it
		}
		bin, err := rep.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinaryPooled(bin)
		if err != nil || !equalDecoded(want, got) {
			t.Fatalf("round %d: OAKRPT1 decode differs from encoding/json (err %v)", round, err)
		}
		got.Release()
	}

	entries, conts, kept := internRetained(t)
	if max := internBuckets * internWays; entries > max || entries < max/2 {
		t.Errorf("table holds %d entries after the flood, want between %d and %d", entries, max/2, max)
	}
	if conts == 0 {
		t.Error("no entry holds a continuation after the flood")
	}
	if max := internBuckets * internWays * maxInternLen; kept > max {
		t.Errorf("table keeps %d string bytes alive, bound %d", kept, max)
	}
	// Drop the pooled reports (they hold strings of the last decodes), then
	// what is left of the flood is what the table keeps.
	grown := int64(live()) - int64(before)
	t.Logf("%d entries (%d with a continuation) keeping %d string bytes; live heap grew %d bytes", entries, conts, kept, grown)
	if grown > 1<<20 {
		t.Errorf("live heap grew %d bytes across the flood, want at most 1 MB", grown)
	}
}

// TestInternTableUnderConcurrentDecoders hammers the shared table from JSON
// and OAKRPT1 decoders at once: a working set larger than the table, so
// entries are evicted and republished throughout, and six URLs that share one
// bucket of four ways yet name different hosts — a decoder that ever paired
// a URL with a neighbour's cached host fails the comparison against
// encoding/json. Among them, eight pages of a shared vocabulary arrive in
// four shapes each (entries rotated, or one entry's sizeBytes changed), so
// decoders match, miss, publish and replace those pages' templates at once.
// Run under -race by scripts/verify.sh.
func TestInternTableUnderConcurrentDecoders(t *testing.T) {
	resetInternTable()
	// URLs that collide: same bucket, different hosts.
	var colliding []string
	want := maphash.Bytes(internSeed, []byte("http://collide-0.example/x")) & (internBuckets - 1)
	for i := 0; len(colliding) < internWays+2; i++ {
		u := fmt.Sprintf("http://collide-%d.example/x", i)
		if maphash.Bytes(internSeed, []byte(u))&(internBuckets-1) == want {
			colliding = append(colliding, u)
		}
	}

	type fixture struct {
		json, bin []byte
		want      *Report
	}
	fixtures := make([]fixture, 192)
	for k := range fixtures {
		rep := floodReport(k, 40)
		for i := range rep.Entries {
			if i%4 == 2 {
				rep.Entries[i].URL = colliding[(k+i)%len(colliding)]
				// The same string as another field: an entry without a host
				// that a URL lookup must republish.
				rep.Entries[i].InitiatorURL = colliding[(k+i+1)%len(colliding)]
			}
		}
		if k >= 160 { // instead, a page of the template fixtures
			rep = templatePageShape(k, (k-160)%8, (k-160)/8)
		}
		var f fixture
		var err error
		if f.json, err = rep.Marshal(); err != nil {
			t.Fatal(err)
		}
		if f.bin, err = rep.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if f.want, err = referenceDecode(f.json); err != nil {
			t.Fatal(err)
		}
		for i := range f.want.Entries {
			f.want.Entries[i].Host() // resolve the lazy hosts before sharing
		}
		fixtures[k] = f
	}

	// Each goroutine decodes JSON with a decoder of its own, DecodePooled's
	// but for the pool, so that it can count the entries it decoded from a
	// page's template, and after each decode of a template page looks up the
	// page's template: the decoders publish them while the flood runs, and
	// the flood may have evicted every one by the end. A decoder records a
	// template from the first of every templateEvery reports that could, so
	// each goroutine starts on the template pages, while the others flood:
	// first its own page three times, which records and then matches a
	// template unless the flood evicts the page or its URLs in between.
	var wg sync.WaitGroup
	var templated, held atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			d := new(fastDecoder)
			for n := 0; n < 400; n++ {
				f := &fixtures[rng.Intn(len(fixtures))]
				switch {
				case n < 3: // the decoder's own page, as JSON: met, recorded, matched
					f = &fixtures[160+g]
				case n < templateEvery:
					f = &fixtures[160+rng.Intn(32)]
				}
				var got *Report
				var err error
				if n < 3 || (g+n)%2 == 0 {
					if got = acquireReport(); d.decode(f.json, got) {
						templated.Add(int64(d.tm.hits))
					} else {
						got.Release()
						got, err = DecodePooled(f.json)
					}
				} else {
					got, err = DecodeBinaryPooled(f.bin)
				}
				if err != nil {
					t.Errorf("decoder %d: %v", g, err)
					return
				}
				if strings.HasPrefix(f.want.Page, "/tpl-") && pageTemplate(f.want.Page) != nil {
					held.Add(1)
				}
				if !equalDecoded(f.want, got) {
					t.Errorf("decoder %d: decode differs from encoding/json:\nref: %+v\ngot: %+v", g, f.want, got)
					return
				}
				got.Release()
			}
		}(g)
	}
	wg.Wait()
	if templated.Load()+held.Load() == 0 {
		t.Error("no entry was decoded from a page's template and no template page held one after a decode: the decoders never published one")
	}
}

// templatePageShape is report k: page p of a site whose object j has the
// same bytes on every page, in shape v of four, its 24 entries rotated by v
// or with entry 5v's sizeBytes changed.
func templatePageShape(k, p, v int) *Report {
	rep := &Report{UserID: fmt.Sprintf("tpl-user-%d", k), Page: fmt.Sprintf("/tpl-%d.html", p)}
	for i := 0; i < 24; i++ {
		j := (p + i) % 30
		rep.Entries = append(rep.Entries, Entry{URL: fmt.Sprintf("http://tpl%d.example/o%d.js", j%6, j),
			ServerAddr: fmt.Sprintf("10.0.%d.1:443", j%6), SizeBytes: int64(1000 + j), DurationMillis: float64(k+i) + 0.5, Kind: KindScript})
	}
	if v%2 == 1 {
		rep.Entries = append(rep.Entries[v:], rep.Entries[:v]...)
	} else {
		rep.Entries[v*5].SizeBytes++
	}
	return rep
}

// pageTemplate is page's template, nil when the table holds none.
func pageTemplate(page string) *template {
	_, t := findTemplate(page, maphash.String(internSeed, page))
	return t
}

// templateBound is what the template table and everything it keeps alive
// may hold beyond the intern table: per template, the 48-byte struct, a page
// string and maxTemplateLen pointers to intern entries of at most 48 +
// maxInternLen bytes each, plus the table's pointers.
const templateBound = templateBuckets*templateWays*(48+maxInternLen+maxTemplateLen*(8+48+maxInternLen)) + templateBuckets*templateWays*8

// templateFloodReport is page p's report: maxTemplateLen entries of URLs
// unique to p, each padded so that its intern entry, with the continuation
// the entry records, is maxInternLen bytes to the byte, under a page name
// padded to maxInternLen. size is every entry's sizeBytes, four digits, so
// that another size keeps the lengths.
func templateFloodReport(p int, size int64) *Report {
	pad := func(s string, n int) string { return s + strings.Repeat("p", n-len(s)) }
	const addr = "10.0.0.1:443"
	head := len(`,"serverAddr":"","sizeBytes":,"durationMillis":`) + len(addr) + len(fmt.Sprint(size))
	tail := len(`,"kind":"script"}`)
	rep := &Report{UserID: fmt.Sprintf("tpl-%d", p), Page: pad(fmt.Sprintf("/tpl/%d/", p), maxInternLen)}
	for i := 0; i < maxTemplateLen; i++ {
		rep.Entries = append(rep.Entries, Entry{
			URL:        pad(fmt.Sprintf("http://t%d-%d.example/", p, i), maxInternLen-head-tail),
			ServerAddr: addr, SizeBytes: size, DurationMillis: 1.5, Kind: KindScript,
		})
	}
	return rep
}

// TestTemplateTableIsBounded is the template table as an adversary would
// use it: four times as many pages as it has templates, each recorded with
// the longest template of URLs no other page has, every URL's intern entry
// filled to the byte. Then every one of those entries is replaced: a flood
// of other tokens drops them from the intern table, and each URL is sent
// again, pageless, with a new sizeBytes, so the table holds a new entry with
// a new continuation while the templates keep the old ones alive. The
// templates and the entries only they keep must stay within templateBound,
// and the process's live heap must have grown by less than that plus the
// intern table's megabyte.
func TestTemplateTableIsBounded(t *testing.T) {
	if size := unsafe.Sizeof(template{}); size != 48 {
		t.Fatalf("a template is %d bytes; the table's bound counts 48", size)
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

	const pages = 4 * templateBuckets * templateWays
	decode := func(data []byte) {
		t.Helper()
		got, err := DecodePooled(data)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	for p := 0; p < pages; p++ {
		rep := templateFloodReport(p, 1000)
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if want, err := referenceDecode(data); err != nil || !equalDecoded(want, mustDecode(t, data)) {
			t.Fatalf("page %d: decode differs from encoding/json (err %v)", p, err)
		}
		for try := 0; ; try++ {
			if pageTemplate(rep.Page) != nil {
				break
			}
			if try > 2+2*templateEvery {
				t.Fatalf("page %d: no template after %d decodes", p, try)
			}
			decode(data)
		}
	}
	for k := 0; k < 4*internBuckets*internWays/maxTemplateLen; k++ {
		junk := &Report{UserID: "junk"}
		for i := 0; i < maxTemplateLen; i++ {
			junk.Entries = append(junk.Entries, Entry{URL: fmt.Sprintf("http://junk%d-%d.example/", k, i)})
		}
		data, err := junk.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		decode(data)
	}
	for p := 0; p < pages; p++ {
		rep := templateFloodReport(p, 1001)
		rep.Page = ""
		data, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		decode(data) // the URL is met again
		decode(data) // and records its new continuation
	}

	templates, entries, stale, kept := 0, 0, 0, 0
	for i := range templateTable {
		for w := range templateTable[i] {
			tpl := templateTable[i][w].Load()
			if tpl == nil {
				continue
			}
			templates++
			kept += int(unsafe.Sizeof(*tpl)) + cap(tpl.urls)*8 + len(tpl.page)
			for _, e := range tpl.urls {
				entries++
				if e.cont.seen == 0 || len(e.s) > maxInternLen {
					t.Errorf("template entry %q: continuation %v, %d bytes", e.token(), e.cont.seen != 0, len(e.s))
				}
				if _, now, _ := internFind(nil, []byte(e.token())); now != e {
					stale++
					kept += int(unsafe.Sizeof(*e)) + len(e.s)
				}
			}
		}
	}
	if max := templateBuckets * templateWays; templates != max || entries != max*maxTemplateLen {
		t.Errorf("%d templates of %d entries after the flood, want %d of %d", templates, entries, max, max*maxTemplateLen)
	}
	if stale != entries {
		t.Errorf("%d of %d template entries are stale, want all: the flood did not replace them", stale, entries)
	}
	if kept > templateBound {
		t.Errorf("templates keep %d bytes alive, bound %d", kept, templateBound)
	}
	grown := int64(live()) - int64(before)
	t.Logf("%d templates, %d entries (%d stale), keeping %d bytes (bound %d); live heap grew %d bytes", templates, entries, stale, kept, templateBound, grown)
	if max := int64(templateBound + 1<<20); grown > max {
		t.Errorf("live heap grew %d bytes across the flood, want at most %d", grown, max)
	}
}

func mustDecode(t *testing.T, data []byte) *Report {
	t.Helper()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}
