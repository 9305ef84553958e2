package report

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strings"
	"testing"
)

// referenceDecode is the pre-fast-path decoder: encoding/json straight into
// a zero Report. The fast path must be indistinguishable from it.
func referenceDecode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	return &r, nil
}

// equalDecoded compares two reports field by field, ignoring the unexported
// host cache (the fast path precomputes it, encoding/json cannot).
func equalDecoded(a, b *Report) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.UserID != b.UserID || a.Page != b.Page || a.GeneratedAtUnixMs != b.GeneratedAtUnixMs {
		return false
	}
	if (a.Entries == nil) != (b.Entries == nil) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		if x.URL != y.URL || x.ServerAddr != y.ServerAddr || x.SizeBytes != y.SizeBytes ||
			math.Float64bits(x.DurationMillis) != math.Float64bits(y.DurationMillis) ||
			x.InitiatorURL != y.InitiatorURL || x.Kind != y.Kind || x.Failed != y.Failed {
			return false
		}
		// The precomputed host must agree with lazy url.Parse extraction.
		if x.Host() != y.Host() {
			return false
		}
	}
	return true
}

func decodeCorpus() [][]byte {
	full := &Report{
		UserID:            "user-42",
		Page:              "/index.html",
		GeneratedAtUnixMs: 1700000000123,
		Entries: []Entry{
			{URL: "http://s1.com/jquery.js?a=1&b=2", ServerAddr: "10.0.0.1:443", SizeBytes: 1024, DurationMillis: 95.5, InitiatorURL: "http://site.com/", Kind: KindScript},
			{URL: "https://cdn.example:8443/img.png", SizeBytes: 200 * 1024, DurationMillis: 2000, Kind: KindImage, Failed: true},
		},
	}
	canonical, _ := full.Marshal()
	corpus := [][]byte{
		canonical,
		[]byte(`{}`),
		[]byte(`{"userId":"u"}`),
		[]byte(`{"userId":"u","entries":[]}`),
		[]byte(`{"userId":"u","entries":[{}]}`),
		[]byte(`{"userId":"u","entries":[{"url":"http://a.com/x","durationMillis":0.1}]}`),
		[]byte(`  {  "userId" : "u" , "page" : "/p" }  `),
		[]byte(`{"userId":"a&b","page":"\t\n\"\\é"}`),
		[]byte(`{"userId":"u","generatedAtUnixMs":-5}`),
		[]byte(`{"userId":"u","generatedAtUnixMs":9223372036854775807}`),
		[]byte(`{"userId":"u","generatedAtUnixMs":9223372036854775808}`),
		[]byte(`{"userId":"u","generatedAtUnixMs":1.5}`),
		[]byte(`{"entries":[{"durationMillis":2e3}]}`),
		[]byte(`{"entries":[{"durationMillis":-0.25}]}`),
		[]byte(`{"entries":[{"durationMillis":0.1234567890123456789}]}`),
		[]byte(`{"entries":[{"sizeBytes":-0}]}`),
		[]byte(`{"entries":[{"sizeBytes":01}]}`),
		[]byte(`{"entries":[{"failed":true},{"failed":false}]}`),
		[]byte(`{"entries":[{"failed":null}]}`),
		[]byte(`{"userId":null}`),
		[]byte(`{"USERID":"case-insensitive"}`),
		[]byte(`{"userId":"dup","userId":"wins"}`),
		[]byte(`{"unknown":"ignored","userId":"u"}`),
		[]byte(`{"userId":"u"} trailing`),
		[]byte(`{"userId":"u",}`),
		[]byte(`[1,2,3]`),
		[]byte(`"just a string"`),
		[]byte(`{"userId":"😀"}`),
		[]byte("{\"userId\":\"café\"}"),
		[]byte(`{"entries":[{"url":"HTTP://UPPER.Example.COM:8080/x"}]}`),
		[]byte(`{"entries":[{"url":"http://user:pw@host.com/x"}]}`),
		[]byte(`{"entries":[{"url":"http://[::1]:80/x"}]}`),
		[]byte(`{"entries":[{"url":"not a url"}]}`),
		[]byte(``),
		// Appended, never inserted: the fuzz seeds above are named by position.
		// Floats as browsers print them (Resource Timing doubles) and the
		// edges of the number grammar.
		[]byte(`{"entries":[{"durationMillis":95.30000001192093}]}`),
		[]byte(`{"entries":[{"durationMillis":-0.0},{"durationMillis":-0},{"durationMillis":0.0}]}`),
		[]byte(`{"entries":[{"durationMillis":1e-7},{"durationMillis":1E+2},{"durationMillis":1.5e3},{"durationMillis":2E-0}]}`),
		[]byte(`{"entries":[{"durationMillis":12345678901234567},{"durationMillis":1234567890.1234567}]}`),
		[]byte(`{"entries":[{"durationMillis":12345678901234567890},{"durationMillis":0.00000000000000000001}]}`),
		[]byte(`{"entries":[{"durationMillis":9007199254740993},{"durationMillis":9007199254740991}]}`),
		[]byte(`{"entries":[{"durationMillis":1e999}]}`),
		[]byte(`{"entries":[{"durationMillis":1e}]}`),
		[]byte(`{"entries":[{"durationMillis":1e+}]}`),
		[]byte(`{"entries":[{"durationMillis":1.e3}]}`),
		[]byte(`{"entries":[{"durationMillis":.5}]}`),
		[]byte(`{"entries":[{"durationMillis":00.5}]}`),
		[]byte(`{"entries":[{"sizeBytes":1e3}]}`),
		// Entry keys out of struct order, spaced, repeated, unknown, folded.
		[]byte(`{"entries":[{"failed":true,"kind":"css","initiatorUrl":"http://a.com/","durationMillis":1.5,"sizeBytes":3,"serverAddr":"ip","url":"http://a.com/x"}]}`),
		[]byte(`{"entries":[{"url" : "http://a.com/x" , "kind": "css","serverAddr" :"ip"}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/x","kind":"css","url":"http://b.com/y"}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/x","kind":"css","serverAddr":"ip","kind":"image"}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/x","extra":{"url":"http://n.com/"},"kind":"css"}]}`),
		[]byte(`{"entries":[{"URL":"http://a.com/x","Kind":"css"}]}`),
		[]byte(`{"entries":[{"\u0075rl":"http://a.com/x"}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/x"},{"url":"http://a.com/x","kind":"script"},{"initiatorUrl":"http://a.com/x"}]}`),
		// Strings around the eight-byte stride of the plain-span check.
		[]byte(`{"userId":"1234567","page":"12345678","entries":[{"url":"123456789","serverAddr":"1234567\t","kind":"12345678\n9"}]}`),
		[]byte("{\"userId\":\"1234567\x01\",\"page\":\"/p\"}"),
		[]byte("{\"userId\":\"12345678901\x1f2345\"}"),
		[]byte("{\"userId\":\"123456789012345\xc3\xa9\"}"),
		[]byte(`{"userId":"a\"b","page":"c\\","entries":[{"url":"http://a.com/\u0026x=\u003c","kind":"\/"}]}`),
		// Continuations: an entry whose URL an earlier entry of the same
		// body carried meets the continuation that entry recorded.
		[]byte(`{"entries":[{"url":"http://a.com/t","durationMillis":1,"kind":"css"},{"url":"http://a.com/t","durationMillis":2,"kind":"css"},{"url":"http://a.com/t","durationMillis":3,"kind":"css",}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/t","durationMillis":1},{"url":"http://a.com/t","durationMillis":2},{"url":"http://a.com/t",}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/w", "serverAddr" : "ip", "durationMillis": 1},{"url":"http://a.com/w", "serverAddr" : "ip", "durationMillis": 2},{"url":"http://a.com/w", "serverAddr" : "ip", "durationMillis":  3},{"url":"http://a.com/w","serverAddr":"ip","durationMillis":4 }]}`),
		[]byte(`{"entries":[{"serverAddr":"ip","url":"http://a.com/n","durationMillis":1},{"url":"http://a.com/n","serverAddr":"ip","durationMillis":2},{"url":"http://a.com/n","serverAddr":"ip","durationMillis":3},{"serverAddr":"ip2","url":"http://a.com/n","durationMillis":4}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/f","serverAddr":"ip","sizeBytes":5,"durationMillis":1,"initiatorUrl":"http://a.com/","kind":"script","failed":true},{"url":"http://a.com/f","serverAddr":"ip","sizeBytes":5,"durationMillis":2,"initiatorUrl":"http://a.com/","kind":"script","failed":true},{"url":"http://a.com/f","serverAddr":"ip","sizeBytes":5,"durationMillis":3,"initiatorUrl":"http://a.com/","kind":"script","failed":true},{"url":"http://a.com/f","serverAddr":"ip","sizeBytes":5,"durationMillis":4,"kind":"script"}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/o"},{"url":"http://a.com/o"},{"url":"http://a.com/o","durationMillis":1},{"url":"http://a.com/o","durationMillis":2},{"url":"http://a.com/o"},{"url":"http://a.com/o","durationMillis":3}]}`),
		[]byte(`{"entries":[{"url":"http://a.com/s","serverAddr":"a","durationMillis":1},{"url":"http://a.com/s","serverAddr":"a","durationMillis":2},{"url":"http://a.com/s","serverAddr":"a","durationMillis":3,"serverAddr":"b"}]}`),
		// Templates: the page after its entries, white space between
		// entries, a URL escaped where its template holds it plain, and a
		// page longer than a template.
		[]byte(`{"userId":"u","entries":[{"url":"http://a.com/pa1","serverAddr":"ip","sizeBytes":1,"durationMillis":1,"kind":"css"},{"url":"http://a.com/pa2","serverAddr":"ip","sizeBytes":2,"durationMillis":2}],"page":"/pa"}`),
		[]byte("{\"page\":\"/ws\",\"entries\":[{\"url\":\"http://a.com/w1\",\"serverAddr\":\"ip\",\"sizeBytes\":1,\"durationMillis\":1} , {\"url\":\"http://a.com/w2\",\"serverAddr\":\"ip\",\"sizeBytes\":2,\"durationMillis\":2}\n\t,{\"url\":\"http://a.com/w3\",\"serverAddr\":\"ip\",\"sizeBytes\":3,\"durationMillis\":3}]}"),
		[]byte(`{"page":"/esc","entries":[{"url":"http:\/\/a.com\/e1","serverAddr":"ip","sizeBytes":1,"durationMillis":1},{"url":"http://a.com/e2","serverAddr":"ip","sizeBytes":2,"durationMillis":2,"kind":"image"}]}`),
		longPageReport(),
		// The userId readings the gateway routes a cookie-less report by:
		// the last key wins, keys fold case, an escaped key or value counts,
		// null leaves the earlier value, nothing nested is the user, and a
		// body encoding/json refuses names nobody.
		[]byte(`{"userId":"a","page":"/p","userId":"b"}`),
		[]byte(`{"userId":"a","entries":[{"url":"http://x.com/"}],"userId":"b"}`),
		[]byte(`{"USERID":"x"}`),
		[]byte(`{"userId":"a","UserID":"b"}`),
		[]byte(`{"userId":"a","\u0075serId":"escaped key"}`),
		[]byte("{\"userId\":\"a\",\"uſerId\":\"b\"}"), // ſ folds to s
		[]byte(`{"userId":"a","userId":null}`),
		[]byte(`{"userId":null,"userId":"b"}`),
		[]byte(`{"userId":"a\u0062"}`),
		[]byte(`{"userId":7}`),
		[]byte(`{"page":"/p","entries":[{"url":"http://x.com/?q=\"userId\":\"n\""}],"generatedAtUnixMs":5,"userId":"last"}`),
		[]byte(`{"entries":[{"userId":"nested"}],"userId":"top"}`),
		[]byte(`{"entries":[{"url":"a\\"},{"url":"}]"}],"userId":"after-escapes"}`),
		[]byte(`{"page":"\\\"","userId":"after-quote"}`),
		[]byte(`{"other":{"userId":"deep","x":[1,{"userId":"deeper"}]},"n":-1.5e3,"t":true,"z":null,"userId":"u"}`),
		[]byte(` { "userId" : "spaced" , "page" : "/p" } `),
		[]byte(`{"userId":"u","page":"/p"}{"userId":"second"}`),
		[]byte(`{"userId":"u",}`),
		[]byte(`{"userId":"u"`),
		[]byte(`{"userId":"u","entries":[}`),
		[]byte(`{"userid":"lower"}`),
		[]byte(`{"userIds":"longer","userI":"shorter","userId":"exact"}`),
	}
	return corpus
}

// longPageReport is a page of maxTemplateLen+6 entries, canonically encoded.
func longPageReport() []byte {
	rep := &Report{UserID: "u", Page: "/long"}
	for i := 0; i < maxTemplateLen+6; i++ {
		rep.Entries = append(rep.Entries, Entry{URL: fmt.Sprintf("http://l%d.example/o%d.js", i%5, i),
			ServerAddr: "10.0.0.1", SizeBytes: int64(i), DurationMillis: float64(i) + 0.5, Kind: KindScript})
	}
	data, _ := rep.Marshal()
	return data
}

// siblingOf is want, marshalled, with every entry changed in one value
// after its URL: in the head (sizeBytes, serverAddr) or in the tail (kind,
// failed), entry i in the (i+k)%4th of those. A table warmed with it holds,
// for every URL of want, a continuation that want's entry mismatches. A
// string changes in its last byte, so that the runs keep their lengths: a
// decoder that skipped a compare would then land where want's entry ends
// and decode it wrong, not fail its way back to encoding/json. nil when want
// has no entry.
func siblingOf(want *Report, k int) []byte {
	if len(want.Entries) == 0 {
		return nil
	}
	sib := *want
	sib.Entries = append([]Entry(nil), want.Entries...)
	for i := range sib.Entries {
		switch e := &sib.Entries[i]; (i + k) % 4 {
		case 0:
			e.SizeBytes++
		case 1:
			e.ServerAddr = lastByteChanged(e.ServerAddr)
		case 2:
			e.Kind = ObjectKind(lastByteChanged(string(e.Kind)))
		case 3:
			e.Failed = !e.Failed
		}
	}
	data, err := sib.Marshal()
	if err != nil {
		return nil
	}
	return data
}

// Template sibling shapes: want with one entry changed, one more, or one
// fewer.
const (
	tplFirst = iota
	tplMiddle
	tplLast
	tplMore
	tplFewer
)

// templateSiblingOf is want, marshalled, in a shape: its first entry's URL
// changed, its middle entry's sizeBytes or its last entry's kind changed
// (each keeping its length, see siblingOf), an entry appended, or its last
// entry dropped. A page warmed with it holds a template that want matches up
// to that entry, or to its end, and mismatches from there. nil when want has
// no entry.
func templateSiblingOf(want *Report, shape int) []byte {
	n := len(want.Entries)
	if n == 0 {
		return nil
	}
	sib := *want
	sib.Entries = append([]Entry(nil), want.Entries...)
	switch shape {
	case tplFirst:
		sib.Entries[0].URL = lastByteChanged(sib.Entries[0].URL)
	case tplMiddle:
		sib.Entries[n/2].SizeBytes++
	case tplLast:
		sib.Entries[n-1].Kind = ObjectKind(lastByteChanged(string(sib.Entries[n-1].Kind)))
	case tplMore:
		sib.Entries = append(sib.Entries, Entry{URL: "http://more.example/x.js", ServerAddr: "ip", DurationMillis: 1})
	case tplFewer:
		sib.Entries = sib.Entries[:n-1]
	}
	data, err := sib.Marshal()
	if err != nil {
		return nil
	}
	return data
}

// warmTemplate decodes data until its page holds a template, or until every
// decoder would have recorded one if data's entries could make one.
func warmTemplate(data []byte) {
	for range 2 + 2*templateEvery {
		r, err := Decode(data)
		if err != nil || r.Page == "" || len(r.Page) > maxInternLen {
			return
		}
		if pageTemplate(r.Page) != nil {
			return
		}
	}
}

// lastByteChanged is s with a different last byte, "~" for "".
func lastByteChanged(s string) string {
	if s == "" {
		return "~"
	}
	if s[len(s)-1] == '~' {
		return s[:len(s)-1] + "!"
	}
	return s[:len(s)-1] + "~"
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, data := range decodeCorpus() {
		want, wantErr := referenceDecode(data)
		got, gotErr := Decode(data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: err mismatch: ref=%v fast=%v", data, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: error text mismatch:\nref:  %v\nfast: %v", data, wantErr, gotErr)
			}
			continue
		}
		if !equalDecoded(want, got) {
			t.Fatalf("%s: decoded mismatch:\nref:  %+v\nfast: %+v", data, want, got)
		}
	}
}

// FuzzDecodeEquivalence pins the fast JSON path to encoding/json: identical
// reports on success, identical error text on failure. Every input is decoded
// with the intern table cold; again with the table warmed by the whole
// corpus (so the input's tokens meet entries other reports made: the same
// string first seen as another field, a neighbour in its bucket) and by the
// input itself, whose second decode records continuations its later ones
// match; and four times more with the table warmed by one of the input's
// siblings (siblingOf), so every continuation the input meets mismatches, in
// its head or in its tail; and five times more with the input's page holding
// the template of a sibling whose first, middle or last entry differs, or
// that has one entry more or fewer (templateSiblingOf), so the input's
// entries are decoded from the template up to there and by the scan after.
// Each time the fast path must take the input if and only if it took it
// cold, and the input is decoded by the fresh and by the pooled decoder (the
// pooled report holding stale contents, to exercise unseen-field zeroing),
// and once more through OAKRPT1, which shares the table.
func FuzzDecodeEquivalence(f *testing.F) {
	corpus := decodeCorpus()
	for _, data := range corpus {
		f.Add(data)
	}
	stale := []byte(`{"userId":"stale-user","page":"/stale","generatedAtUnixMs":99,"entries":[` +
		`{"url":"http://stale.com/a.js","serverAddr":"ip-stale","sizeBytes":7,"durationMillis":7.5,"initiatorUrl":"http://stale.com/","kind":"script","failed":true},` +
		`{"url":"http://stale.com/b.js","kind":"script"},{"url":"http://stale.com/c.js"}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceDecode(data)
		resetInternTable()
		coldFast := false
		for n, state := range []string{"cold", "warm", "sibling", "sibling", "sibling", "sibling",
			"template first", "template middle", "template last", "template more", "template fewer"} {
			switch state {
			case "sibling":
				sib := siblingOf(want, n)
				if sib == nil {
					return
				}
				resetInternTable()
				_, _ = Decode(sib) // the URLs are met
				_, _ = Decode(sib) // and known: continuations are recorded
			case "template first", "template middle", "template last", "template more", "template fewer":
				sib := templateSiblingOf(want, n-6)
				if sib == nil {
					return
				}
				resetInternTable()
				warmTemplate(sib)
			}
			// Whether the fast path takes the input is the input's own
			// property: a continuation or template that mismatches must
			// resume the scan, not fall back to encoding/json.
			var fr Report
			if fast := decodeFastInto(data, &fr); n == 0 {
				coldFast = fast
			} else if fast != coldFast {
				t.Fatalf("%s table: fast path took the input %v, cold %v", state, fast, coldFast)
			} else if fast && !equalDecoded(want, &fr) {
				t.Fatalf("%s table: fast path mismatch:\nref:  %+v\nfast: %+v", state, want, &fr)
			}
			got, gotErr := Decode(data)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s table: err mismatch: ref=%v fast=%v", state, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s table: error text mismatch:\nref:  %v\nfast: %v", state, wantErr, gotErr)
				}
				return
			}
			if !equalDecoded(want, got) {
				t.Fatalf("%s table: decoded mismatch:\nref:  %+v\nfast: %+v", state, want, got)
			}
			// Pooled path, with stale prior contents in the pooled report.
			pre, err := DecodePooled(stale)
			if err != nil {
				t.Fatalf("stale seed: %v", err)
			}
			pre.Release()
			pr, perr := DecodePooled(data)
			if perr != nil {
				t.Fatalf("%s table: pooled decode diverged: %v", state, perr)
			}
			if !equalDecoded(want, pr) {
				t.Fatalf("%s table: pooled mismatch:\nref:    %+v\npooled: %+v", state, want, pr)
			}
			pr.Release()
			if bin, err := want.MarshalBinary(); err == nil {
				br, berr := UnmarshalBinary(bin)
				if berr == nil && len(br.Entries) == 0 {
					br.Entries = want.Entries // OAKRPT1 has no absent-vs-empty distinction
				}
				if berr != nil || !equalDecoded(want, br) {
					t.Fatalf("%s table: OAKRPT1 mismatch (err %v):\nref:    %+v\nbinary: %+v", state, berr, want, br)
				}
			}
			for _, other := range corpus {
				_, _ = Decode(other)
			}
		}
	})
}

// FuzzHostEquivalence pins fastHost against url.Parse(...).Hostname(): any
// URL the fast scanner claims to handle must yield exactly what url.Parse
// yields.
func FuzzHostEquivalence(f *testing.F) {
	seeds := []string{
		"http://s1.com/jquery.js", "https://cdn.example:8443/img.png",
		"HTTP://UPPER.Example.COM:8080/x", "http://user:pw@host.com/x",
		"http://[::1]:80/x", "http://host.com:/x", "http://host.com:abc/x",
		"//scheme-relative.com/x", "not a url", "", "http://", "http://%41.com/",
		"ftp://a.b-c_d~e/", "http://a.com?q=1", "http://a.com#f", "http://a.com:8080",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		h, ok := fastHost(raw)
		if !ok {
			return // defers to url.Parse; nothing to check
		}
		u, err := url.Parse(raw)
		want := ""
		if err == nil {
			want = u.Hostname()
		}
		if h != want {
			t.Fatalf("fastHost(%q) = %q, url.Parse says %q (err=%v)", raw, h, want, err)
		}
	})
}

func TestPooledDecodeRecyclesStrings(t *testing.T) {
	body := []byte(`{"userId":"u1","page":"/p","generatedAtUnixMs":5,"entries":[{"url":"http://a.com/x.js","serverAddr":"ip-a","kind":"script"}]}`)
	r1, err := DecodePooled(body)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Pooled() {
		t.Fatal("DecodePooled returned unpooled report")
	}
	url1 := r1.Entries[0].URL
	host1 := r1.Entries[0].Host()
	r1.Release()
	if r1.Pooled() {
		t.Fatal("Release did not clear pooled mark")
	}

	allocs := testing.AllocsPerRun(100, func() {
		r, err := DecodePooled(body)
		if err != nil {
			t.Fatal(err)
		}
		if r.Entries[0].URL != url1 || r.Entries[0].Host() != host1 {
			t.Fatal("repeated decode mismatch")
		}
		r.Release()
	})
	if allocs > 1 {
		t.Fatalf("steady-state pooled decode allocated %.1f/op, want ≤1", allocs)
	}
}

func TestDecodeLargeCanonicalReport(t *testing.T) {
	rep := &Report{UserID: "u", Page: "/big", GeneratedAtUnixMs: 123}
	for i := 0; i < 40; i++ {
		rep.Entries = append(rep.Entries, Entry{
			URL:            fmt.Sprintf("http://s%d.example/obj-%d.js?x=%d&y=%d", i%7, i, i, i*3),
			ServerAddr:     fmt.Sprintf("10.0.0.%d:443", i%7),
			SizeBytes:      int64(i * 1837),
			DurationMillis: float64(i) * 13.25,
			InitiatorURL:   "http://site.com/big",
			Kind:           KindScript,
			Failed:         i%11 == 0,
		})
	}
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceDecode(data)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDecoded(want, got) {
		t.Fatal("large canonical report decode mismatch")
	}
	// The canonical marshal of a report must take the fast path (this is
	// the wire shape every oak client emits).
	var probe Report
	if !decodeFastInto(data, &probe) {
		t.Fatal("canonical report fell off the fast path")
	}
	if strings.Contains(string(data), "\\u") {
		t.Log("corpus exercised escape sequences")
	}
}
