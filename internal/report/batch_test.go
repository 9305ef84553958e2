package report

import (
	"bytes"
	"errors"
	"testing"
)

// walk collects every item NextItem yields from body and the error, if any,
// that ended the walk.
func walk(f Format, body []byte) (items [][]byte, err error) {
	for rest := body; ; {
		item, next, err := NextItem(f, rest)
		if err != nil || item == nil {
			return items, err
		}
		items, rest = append(items, item), next
	}
}

func TestNextItemNDJSON(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{"empty", "", nil},
		{"blank lines only", "\n \n\t\r\n\n", nil},
		{"trailing newline", "a\nb\n", []string{"a", "b"}},
		{"no trailing newline", "a\nb", []string{"a", "b"}},
		{"CRLF", "a\r\nb\r\n", []string{"a", "b"}},
		{"blank lines between", "\n\na\n  \n\nb\n\n", []string{"a", "b"}},
		{"surrounding white space", "  a  \n\tb\t", []string{"a", "b"}},
	} {
		items, err := walk(FormatNDJSON, []byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, it := range items {
			got = append(got, string(it))
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: items %q, want %q", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: items %q, want %q", tc.name, got, tc.want)
			}
		}
	}
}

// TestBatchItemReadsAsItsSingle: a line with a Unicode space around it is
// an item with that space still on it, so it gets the verdict the same bytes
// get POSTed alone — refused — while JSON white space around a line is
// trimmed and accepted on both roads alike.
func TestBatchItemReadsAsItsSingle(t *testing.T) {
	js, err := (&Report{UserID: "u", Page: "/p"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		line       string
		wantDecode bool
	}{
		{"JSON white space", " \t" + string(js) + "\r", true},
		{"trailing U+00A0", string(js) + "\u00a0", false},
		{"leading U+0085", "\u0085" + string(js), false},
		{"trailing U+2028", string(js) + "\u2028", false},
	} {
		_, singleErr := Decode([]byte(tc.line))
		items, err := walk(FormatNDJSON, []byte("\n"+tc.line+"\n"))
		if err != nil || len(items) != 1 {
			t.Fatalf("%s: walked %q, err %v; want one item", tc.name, items, err)
		}
		r, itemErr := DecodeItem(FormatNDJSON, items[0])
		r.Release()
		if (singleErr == nil) != tc.wantDecode || (itemErr == nil) != tc.wantDecode {
			t.Errorf("%s: alone %v, as a batch item %v; want both to decode: %v", tc.name, singleErr, itemErr, tc.wantDecode)
		}
	}
}

func TestNextItemBinaryBatch(t *testing.T) {
	var body, scratch []byte
	for _, u := range []string{"u1", "u2"} {
		body, scratch = AppendBinaryFrame(body, scratch, &Report{UserID: u, Page: "/p"})
	}
	body = append(body, 0) // an empty frame is a frame
	items, err := walk(FormatBinaryBatch, body)
	if err != nil || len(items) != 3 || SniffBinaryUser(items[1]) != "u2" || len(items[2]) != 0 {
		t.Fatalf("walk = %d items, err %v; want u1, u2 and an empty frame", len(items), err)
	}
	if joined := JoinItems(FormatBinaryBatch, items); !bytes.Equal(joined, body) {
		t.Errorf("JoinItems does not give back the walked body:\n%x\n%x", joined, body)
	}
	for _, tc := range []struct {
		name string
		tail []byte
		want error
	}{
		{"torn last frame", []byte{5, 'O', 'A'}, ErrBinaryTruncated},
		{"prefix cut short", []byte{0x80}, ErrBinaryTruncated},
		{"non-minimal prefix", []byte{0x81, 0x00, 'x'}, ErrBinaryCorrupt},
	} {
		items, err := walk(FormatBinaryBatch, append(bytes.Clone(body), tc.tail...))
		if !errors.Is(err, tc.want) || len(items) != 3 {
			t.Errorf("%s: %d items, err %v; want the 3 frames before it, then %v", tc.name, len(items), err, tc.want)
		}
	}
}

func TestItemDecodeAndSniffFollowTheFormat(t *testing.T) {
	rep := &Report{UserID: "who", Page: "/p"}
	js, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := rep.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    Format
		item []byte
	}{{FormatJSON, js}, {FormatNDJSON, js}, {FormatBinary, bin}, {FormatBinaryBatch, bin}} {
		if got := SniffItemUser(tc.f, tc.item); got != "who" {
			t.Errorf("format %d: sniffed %q, want who", tc.f, got)
		}
		r, err := DecodeItem(tc.f, tc.item)
		if err != nil || r.UserID != "who" {
			t.Fatalf("format %d: decode %v, %v", tc.f, r, err)
		}
		r.Release()
	}
	// An OAKRPT1 payload is no JSON report, whatever its bytes say.
	if got := SniffItemUser(FormatNDJSON, bin); got != "" {
		t.Errorf("OAKRPT1 bytes sniffed as a JSON line: %q", got)
	}
	if _, err := DecodeItem(FormatNDJSON, bin); err == nil {
		t.Error("OAKRPT1 bytes decoded as a JSON line")
	}
}

// TestSniffItemUserReadsJSONAsDecode: a cookie-less JSON report is routed by
// the user encoding/json files it under — the last userId key, in any case,
// escaped or not; a null leaves the earlier value; a key nested in an entry
// is no user — and a body that does not decode names nobody.
func TestSniffItemUserReadsJSONAsDecode(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"userId":"a","page":"/p","userId":"b"}`, "b"},
		{`{"USERID":"x"}`, "x"},
		{`{"userId":"a","UserID":"b"}`, "b"},
		{`{"userId":"a","userId":null}`, "a"},
		{`{"userId":"a","\u0075serId":"b"}`, "b"},
		{`{"userId":"a\u0062"}`, "ab"},
		{`{"entries":[{"userId":"nested"}],"userId":"top"}`, "top"},
		{`{"entries":[{"userId":"nested"}]}`, ""},
		{`{"userId":"u"`, ""},
		{`not json`, ""},
	} {
		for _, f := range []Format{FormatJSON, FormatNDJSON} {
			if got := SniffItemUser(f, []byte(tc.body)); got != tc.want {
				t.Errorf("format %d: SniffItemUser(%s) = %q, want %q", f, tc.body, got, tc.want)
			}
		}
	}
}

// FuzzSniffUserAgreesWithDecode pins the gateway's routing key to the
// backend's filing key: whenever Decode accepts a JSON body, SniffItemUser
// names the user Decode names, and "" otherwise.
func FuzzSniffUserAgreesWithDecode(f *testing.F) {
	for _, data := range decodeCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := ""
		if r, err := Decode(data); err == nil {
			want = r.UserID
		}
		if got := SniffItemUser(FormatJSON, data); got != want {
			t.Fatalf("SniffItemUser = %q, Decode().UserID = %q\nbody: %s", got, want, data)
		}
	})
}

// FuzzItemWalkRoundTrip: whatever the body, the items walked off it and
// joined back into a batch walk back to the same items, so a sub-batch the
// gateway reassembles reads at the backend exactly as its items read at the
// edge.
func FuzzItemWalkRoundTrip(f *testing.F) {
	f.Add([]byte("a\n\n b \r\nc"), false)
	f.Add([]byte("\x03abc\x00\x02de\x80"), true)
	f.Add([]byte{0x81, 0x00}, true)
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		format := FormatNDJSON
		if binary {
			format = FormatBinaryBatch
		}
		items, _ := walk(format, body)
		again, err := walk(format, JoinItems(format, items))
		if err != nil || len(again) != len(items) {
			t.Fatalf("rewalk: %d items, err %v; want %d", len(again), err, len(items))
		}
		for i := range items {
			if !bytes.Equal(again[i], items[i]) {
				t.Fatalf("item %d: %q, want %q", i, again[i], items[i])
			}
		}
	})
}
