package report

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		UserID:            "user-9",
		Page:              "/index.html",
		GeneratedAtUnixMs: 1700000000123,
		Entries: []Entry{
			{URL: "http://s1.com/jquery.js?a=1&b=2", ServerAddr: "10.0.0.1:443", SizeBytes: 1024, DurationMillis: 95.5, InitiatorURL: "http://site.com/", Kind: KindScript},
			{URL: "https://cdn.example:8443/img.png", SizeBytes: 200 * 1024, DurationMillis: 2000, Kind: KindImage, Failed: true},
			{URL: "http://s1.com/style.css", ServerAddr: "10.0.0.1:443", SizeBytes: -3, DurationMillis: math.Inf(1), Kind: KindCSS},
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := sampleReport()
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinary(data) {
		t.Fatal("IsBinary rejected own encoding")
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDecoded(r, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", r, got)
	}
	if u := SniffBinaryUser(data); u != "user-9" {
		t.Fatalf("SniffBinaryUser = %q", u)
	}
	re := got.AppendBinary(nil)
	if !bytes.Equal(data, re) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	r := sampleReport()
	r.Entries[2].DurationMillis = 412.75 // Inf is binary-only; JSON cannot carry it
	j, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(b)) > 0.75*float64(len(j)) {
		t.Fatalf("binary %dB is not ≥25%% smaller than JSON %dB", len(b), len(j))
	}
}

func TestBinaryHostileFrames(t *testing.T) {
	valid, _ := sampleReport().MarshalBinary()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBinaryMagic},
		{"bad magic", []byte("NOPE"), ErrBinaryMagic},
		{"magic only", []byte(binaryMagic), ErrBinaryTruncated},
		{"truncated mid-string", valid[:len(binaryMagic)+3], ErrBinaryTruncated},
		{"truncated mid-entry", valid[:len(valid)-5], ErrBinaryTruncated},
		{"trailing garbage", append(append([]byte{}, valid...), 0xFF), ErrBinaryCorrupt},
		{"oversized string len", append([]byte(binaryMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), ErrBinaryOversized},
		{"entry count exceeds body", func() []byte {
			b := []byte(binaryMagic)
			b = append(b, 1, 'u') // userID "u"
			b = append(b, 0)      // page ""
			b = append(b, 0)      // generatedAt 0
			b = append(b, 0xFF, 0xFF, 0xFF, 0x7F)
			return b
		}(), ErrBinaryOversized},
		{"reserved flag bits", func() []byte {
			r := &Report{UserID: "u", Entries: []Entry{{URL: "http://a.com/x"}}}
			b, _ := r.MarshalBinary()
			b[len(b)-1] = 0x80
			return b
		}(), ErrBinaryCorrupt},
	}
	for _, tc := range cases {
		if _, err := UnmarshalBinary(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		// The pooled path must agree and must not leak a live report.
		if _, err := DecodeBinaryPooled(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s (pooled): got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBinaryBatchFraming(t *testing.T) {
	r1 := sampleReport()
	r2 := &Report{UserID: "other", Page: "/p", Entries: []Entry{{URL: "http://b.com/y.js", Kind: KindScript}}}
	var body, scratch []byte
	body, scratch = AppendBinaryFrame(body, scratch, r1)
	body, _ = AppendBinaryFrame(body, scratch, r2)

	frame, rest, err := NextBinaryFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if SniffBinaryUser(frame) != "user-9" {
		t.Fatalf("frame 1 user = %q", SniffBinaryUser(frame))
	}
	got1, err := UnmarshalBinary(frame)
	if err != nil || !equalDecoded(r1, got1) {
		t.Fatalf("frame 1 decode: err=%v", err)
	}
	frame, rest, err = NextBinaryFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := UnmarshalBinary(frame)
	if err != nil || !equalDecoded(r2, got2) {
		t.Fatalf("frame 2 decode: err=%v", err)
	}
	if frame, rest, err = NextBinaryFrame(rest); err != nil || frame != nil || rest != nil {
		t.Fatalf("batch end: frame=%v rest=%v err=%v", frame, rest, err)
	}

	// Hostile prefixes, read like every other OAKRPT1 varint.
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"frame longer than the body", []byte{0x7F, 0x01}, ErrBinaryTruncated},
		{"length prefix cut short", []byte{0x80}, ErrBinaryTruncated},
		{"non-minimal length prefix", append([]byte{0x81, 0x00}, 'x'), ErrBinaryCorrupt},
		{"overflowing length prefix", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, ErrBinaryCorrupt},
	} {
		if _, _, err := NextBinaryFrame(tc.body); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzBinaryRoundTrip pins two properties: decode(encode(r)) is identity for
// any decodable report, and arbitrary (including hostile) payloads either
// decode to something that re-encodes byte-identically or fail with one of
// the typed errors — never a panic, never an untyped error. The same bytes
// read as a batch body hold the framer to the same rules (checkFrameSplit).
func FuzzBinaryRoundTrip(f *testing.F) {
	valid, _ := sampleReport().MarshalBinary()
	f.Add(valid)
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Add([]byte{0x80})            // batch length prefix cut short
	f.Add([]byte{0x81, 0x00, 'x'}) // non-minimal batch length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameSplit(t, data)
		r, err := UnmarshalBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBinaryMagic) && !errors.Is(err, ErrBinaryTruncated) &&
				!errors.Is(err, ErrBinaryOversized) && !errors.Is(err, ErrBinaryCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		re := r.AppendBinary(nil)
		if !bytes.Equal(data, re) {
			t.Fatalf("decode/encode not identity:\nin:  %x\nout: %x", data, re)
		}
		// Pooled decode must agree with the fresh one.
		pr, perr := DecodeBinaryPooled(data)
		if perr != nil {
			t.Fatalf("pooled decode diverged: %v", perr)
		}
		if !equalDecoded(r, pr) {
			t.Fatal("pooled binary decode mismatch")
		}
		pr.Release()
	})
}

// checkFrameSplit reads data as a batch body. A frame split off it must
// re-frame byte-identically (so its length prefix was the canonical one);
// otherwise the error is typed, and ErrBinaryCorrupt is final — more bytes
// cannot cure it, which is what sets it apart from ErrBinaryTruncated.
func checkFrameSplit(t *testing.T, data []byte) {
	frame, rest, err := NextBinaryFrame(data)
	switch {
	case err == nil:
		if len(data) == 0 {
			return
		}
		reframed := append(binary.AppendUvarint(nil, uint64(len(frame))), frame...)
		if !bytes.Equal(append(reframed, rest...), data) {
			t.Fatalf("frame split not identity:\nin:  %x\nout: %x + %x", data, reframed, rest)
		}
	case errors.Is(err, ErrBinaryCorrupt):
		if _, _, err := NextBinaryFrame(append(append([]byte{}, data...), 0x01)); !errors.Is(err, ErrBinaryCorrupt) {
			t.Fatalf("corrupt batch %x curable by one more byte: %v", data, err)
		}
	case !errors.Is(err, ErrBinaryTruncated):
		t.Fatalf("untyped framing error: %v", err)
	}
}

func TestClassifyContentType(t *testing.T) {
	for ct, want := range map[string]Format{
		"":                                    FormatJSON,
		"application/json":                    FormatJSON,
		"application/json; charset=utf-8":     FormatJSON,
		"text/plain; note=jsonl":              FormatJSON,
		"application/x-oak-report-batch-v2":   FormatJSON,
		"application/x-ndjson; charset":       FormatJSON, // malformed parameter
		";;;":                                 FormatJSON,
		ContentTypeNDJSON:                     FormatNDJSON,
		"application/ndjson":                  FormatNDJSON,
		"application/jsonl":                   FormatNDJSON,
		"Application/X-NDJSON; charset=utf-8": FormatNDJSON,
		ContentTypeBinary:                     FormatBinary,
		ContentTypeBinary + "; v=1":           FormatBinary,
		ContentTypeBinaryBatch:                FormatBinaryBatch,
	} {
		if got := ClassifyContentType(ct); got != want {
			t.Errorf("ClassifyContentType(%q) = %d, want %d", ct, got, want)
		}
	}
}

// TestClassifyContentTypeRoutesAgree pins the comparison route to the parsing
// one: the senders' own spellings are answered without mime.ParseMediaType,
// nothing else is, and no header reads differently for the shortcut.
func TestClassifyContentTypeRoutesAgree(t *testing.T) {
	for _, tc := range []struct {
		ct    string
		exact bool
	}{
		{"", true},
		{ContentTypeJSON, true},
		{ContentTypeNDJSON, true},
		{ContentTypeBinary, true},
		{ContentTypeBinaryBatch, true},
		{"application/json; charset=utf-8", false},
		{"Application/JSON", false},
		{" application/json", false},
		{"application/json ", false},
		{"application/ndjson", false},
		{"application/jsonl", false},
		{"Application/X-NDJSON; charset=utf-8", false},
		{"application/x-ndjson; charset", false},
		{ContentTypeBinary + "; v=1", false},
		{"APPLICATION/X-OAK-REPORT", false},
		{ContentTypeBinaryBatch + " ", false},
		{"application/x-oak-report-batch-v2", false},
		{"text/plain", false},
		{";;;", false},
	} {
		want := classifyParsed(tc.ct)
		f, exact := classifyExact(tc.ct)
		if exact != tc.exact {
			t.Errorf("classifyExact(%q) answered = %v, want %v", tc.ct, exact, tc.exact)
		}
		if exact && f != want {
			t.Errorf("classifyExact(%q) = %d, mime.ParseMediaType route says %d", tc.ct, f, want)
		}
		if got := ClassifyContentType(tc.ct); got != want {
			t.Errorf("ClassifyContentType(%q) = %d, mime.ParseMediaType route says %d", tc.ct, got, want)
		}
	}
}
