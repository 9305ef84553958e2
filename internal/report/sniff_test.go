package report

import "testing"

// sniffCorpus are report bodies whose userId the gateway and the backend
// could disagree on if the sniff read the body its own way.
func sniffCorpus() [][]byte {
	return append(decodeCorpus(),
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
	)
}

func TestSniffJSONUser(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"userId":"a","page":"/p","userId":"b"}`, "b"},
		{`{"USERID":"x"}`, "x"},
		{`{"userId":"a","userId":"b"}`, "b"},
		{`{"userId":"a","userId":null}`, "a"},
		{`{"userId":"a","\u0075serId":"b"}`, "b"},
		{`{"entries":[{"userId":"nested"}],"userId":"top"}`, "top"},
		{`{"entries":[{"userId":"nested"}]}`, ""},
		{`{"userId":"u"`, ""},
		{`not json`, ""},
	} {
		if got := SniffJSONUser([]byte(tc.body)); got != tc.want {
			t.Errorf("SniffJSONUser(%s) = %q, want %q", tc.body, got, tc.want)
		}
	}
	// The shape every oak client emits is answered from the line, without a
	// decode (and so without allocating more than the result).
	body, err := rotatingReports(1)[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sniffUser(body); !ok {
		t.Error("a canonical report fell through to Decode")
	}
}

// FuzzSniffUserAgreesWithDecode pins the gateway's routing key to the
// backend's filing key: whenever Decode accepts a body, SniffJSONUser names
// the user Decode names.
func FuzzSniffUserAgreesWithDecode(f *testing.F) {
	for _, data := range sniffCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			_ = SniffJSONUser(data) // must not panic
			return
		}
		if got := SniffJSONUser(data); got != r.UserID {
			t.Fatalf("SniffJSONUser = %q, Decode().UserID = %q\nbody: %s", got, r.UserID, data)
		}
	})
}

// BenchmarkSniffRotating is the gateway's routing read of a cookie-less
// JSON report, over the bodies BenchmarkDecodeRotating decodes whole.
func BenchmarkSniffRotating(b *testing.B) {
	bodies, _ := rotatingBodies(b, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if SniffJSONUser(bodies[i%len(bodies)]) == "" {
			b.Fatal("no userId sniffed")
		}
	}
}
