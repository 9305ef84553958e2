package gateway_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"oak"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/report"
)

// The report sweep: generated bodies of all four report content types are
// POSTed to one node and to a gateway over two nodes, and the two tiers must
// answer alike — the same status, the same submitted / processed / failed
// counts, at most 8 distinct error samples, no 5xx — and leave the same
// state: the two backends' exports union to the single node's. Every engine
// reads one fixed instant, so a profile's bytes depend on its reports alone.
//
// The nodes run at oakd's default bounds because that is where the
// gateway's own bounds are the node's: a report of 4 MiB, a batch of 16 of
// them. At any other -max-body-bytes the gateway still splits a cookie-less
// batch at the default bounds, so the tiers may differ (DESIGN.md decision
// 29).

const (
	reportBound = origin.DefaultMaxBodyBytes
	batchBound  = origin.BatchBodyFactor * reportBound
)

// sweepRange is how many seeds TestReportSweep runs, 1..sweepRange; raise
// it locally to hunt for failing ones.
const sweepRange = 32

// failedSeeds are seeds that once failed, kept whatever sweepRange says.
var failedSeeds = []uint64{
	1, // the gateway merged a backend's "truncated OAKRPT1 payload" sample and its own framing error's alike: the sample twice
	3, // the same for "corrupt OAKRPT1 payload"
}

// sweepSeeds are the generated traffic's seeds: every failed seed, then
// 1..sweepRange.
func sweepSeeds() []uint64 {
	seeds := slices.Clone(failedSeeds)
	for s := uint64(1); s <= sweepRange; s++ {
		if !slices.Contains(failedSeeds, s) {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

var sweepInstant = time.Unix(1_700_000_000, 0)

// tiers is one node, and a gateway over two more.
type tiers struct {
	node     *oak.Server
	gw       *gateway.Gateway
	backends [2]*oak.Engine
}

func newTiers(t *testing.T) *tiers {
	t.Helper()
	engine := func() *oak.Engine {
		e, err := oak.NewEngine(nil, oak.WithClock(func() time.Time { return sweepInstant }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		return e
	}
	tr := &tiers{node: oak.NewServer(engine())}
	var urls []string
	for i := range tr.backends {
		tr.backends[i] = engine()
		ts := httptest.NewServer(oak.NewServer(tr.backends[i]))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	gw, err := gateway.NewGateway(gateway.Config{Backends: urls, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	tr.gw = gw
	return tr
}

// sweepCase is one POST: a body opened afresh for each tier, sent with its
// length declared or chunked.
type sweepCase struct {
	name        string
	contentType string
	cookie      string // the oak-user cookie's value; "" sends none
	chunked     bool
	size        int64
	open        func() io.Reader
}

func bodyCase(name, contentType, cookie string, chunked bool, body []byte) sweepCase {
	return sweepCase{name: name, contentType: contentType, cookie: cookie, chunked: chunked,
		size: int64(len(body)), open: func() io.Reader { return bytes.NewReader(body) }}
}

// answer is what a tier said to one POST.
type answer struct {
	status int
	res    core.BatchResult
	text   string
}

func send(h http.Handler, c sweepCase) answer {
	req := httptest.NewRequest(http.MethodPost, origin.ReportPathV1, struct{ io.Reader }{c.open()})
	req.ContentLength = c.size
	if c.chunked {
		req.ContentLength = -1
	}
	req.Header.Set("Content-Type", c.contentType)
	if c.cookie != "" {
		req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: c.cookie})
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	a := answer{status: rec.Code, text: rec.Body.String()}
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		_ = json.Unmarshal(rec.Body.Bytes(), &a.res)
	}
	return a
}

// profiles maps each exported user to their profile's JSON.
func profiles(t *testing.T, engines ...*oak.Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, e := range engines {
		data, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		var st struct{ Profiles []json.RawMessage }
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		for _, p := range st.Profiles {
			var id struct {
				UserID string `json:"userId"`
			}
			if err := json.Unmarshal(p, &id); err != nil {
				t.Fatal(err)
			}
			out[id.UserID] = string(p)
		}
	}
	return out
}

// agree POSTs c to both tiers and fails unless they answer and end alike.
func (tr *tiers) agree(t *testing.T, c sweepCase) answer {
	t.Helper()
	direct, via := send(tr.node, c), send(tr.gw, c)
	if direct.status >= 500 || via.status >= 500 {
		t.Fatalf("%s: 5xx from a report body: node %d %q, gateway %d %q", c.name, direct.status, direct.text, via.status, via.text)
	}
	if direct.status != via.status {
		t.Fatalf("%s: node answered %d %q, gateway %d %q", c.name, direct.status, direct.text, via.status, via.text)
	}
	d, v := direct.res, via.res
	if d.Submitted != v.Submitted || d.Processed != v.Processed || d.Failed != v.Failed || d.Overloaded != v.Overloaded {
		t.Fatalf("%s: node counted %+v, gateway %+v", c.name, d, v)
	}
	for tier, res := range map[string]core.BatchResult{"node": d, "gateway": v} {
		seen := map[string]bool{}
		for _, e := range res.Errors {
			if seen[e] {
				t.Fatalf("%s: %s repeats the sample %q", c.name, tier, e)
			}
			seen[e] = true
		}
		if len(res.Errors) > 8 {
			t.Fatalf("%s: %s carries %d error samples, want at most 8", c.name, tier, len(res.Errors))
		}
	}
	single, union := profiles(t, tr.node.Engine()), profiles(t, tr.backends[:]...)
	if len(single) != len(union) {
		t.Fatalf("%s: the node holds %d users, the backends %d", c.name, len(single), len(union))
	}
	for u, p := range single {
		if union[u] != p {
			t.Fatalf("%s: user %q\nnode:     %s\nbackends: %s", c.name, u, p, union[u])
		}
	}
	return direct
}

// gen draws report traffic from one seed.
type gen struct{ r *rand.Rand }

func (g gen) user() string { return fmt.Sprintf("sweep-u%d", g.r.IntN(8)) }

// report draws a report: valid, or one the engine rejects (an empty URL at
// a drawn entry, no entries, a negative size, no user).
func (g gen) report() *report.Report {
	rep := &report.Report{UserID: g.user(), Page: "/p", GeneratedAtUnixMs: sweepInstant.UnixMilli()}
	for i, n := 0, 1+g.r.IntN(3); i < n; i++ {
		rep.Entries = append(rep.Entries, report.Entry{
			URL:            fmt.Sprintf("http://cdn%d.example/o%d.js", g.r.IntN(3), i),
			ServerAddr:     fmt.Sprintf("10.0.0.%d", g.r.IntN(3)),
			SizeBytes:      int64(100 * (1 + g.r.IntN(50))),
			DurationMillis: float64(10 * (1 + g.r.IntN(300))),
		})
	}
	switch g.r.IntN(8) {
	case 0:
		rep.Entries[g.r.IntN(len(rep.Entries))].URL = ""
	case 1:
		rep.Entries = nil
	case 2:
		rep.Entries[0].SizeBytes = -1
	case 3:
		rep.UserID = ""
	}
	return rep
}

var malformedJSON = []string{`{not json}`, `{"userId":`, `[1,2]`, `{"userId":5}`, `"x"`, `{"entries":{}}`}

// jsonItem draws one JSON report, or a line that will not decode.
func (g gen) jsonItem() []byte {
	if g.r.IntN(6) == 0 {
		return []byte(malformedJSON[g.r.IntN(len(malformedJSON))])
	}
	b, err := g.report().Marshal()
	if err != nil {
		panic(err)
	}
	return b
}

// binItem draws one OAKRPT1 payload, or one that will not decode.
func (g gen) binItem() []byte {
	b, err := g.report().MarshalBinary()
	if err != nil {
		panic(err)
	}
	switch g.r.IntN(8) {
	case 0:
		return b[:len(b)-1]
	case 1:
		return []byte("junk")
	case 2:
		return append(b, 0)
	}
	return b
}

// draw draws one POST.
func (g gen) draw(name string) sweepCase {
	cookie := ""
	if g.r.IntN(3) == 0 {
		cookie = g.user()
	}
	chunked := g.r.IntN(2) == 0
	var body []byte
	var ct string
	switch g.r.IntN(4) {
	case 0:
		ct = []string{"", report.ContentTypeJSON, "application/json; charset=utf-8"}[g.r.IntN(3)]
		body = g.jsonItem()
		if g.r.IntN(4) == 0 {
			body = append(append([]byte(" \n"), body...), "\r\n"...)
		}
	case 1:
		ct = report.ContentTypeBinary
		body = g.binItem()
	case 2:
		ct = []string{report.ContentTypeNDJSON, "application/ndjson", "application/jsonl; charset=utf-8"}[g.r.IntN(3)]
		for i, n := 0, g.r.IntN(13); i < n; i++ {
			if g.r.IntN(4) == 0 {
				body = append(body, []string{"\n", " \t\n", "\r\n"}[g.r.IntN(3)]...)
			}
			if g.r.IntN(5) == 0 {
				body = append(body, "  "...)
			}
			body = append(body, g.jsonItem()...)
			body = append(body, []string{"\n", "\r\n", "\n\n", " \n"}[g.r.IntN(4)]...)
		}
		if g.r.IntN(3) == 0 {
			body = bytes.TrimRight(body, " \r\n")
		}
	default:
		ct = report.ContentTypeBinaryBatch
		for i, n := 0, g.r.IntN(13); i < n; i++ {
			item := g.binItem()
			body = binary.AppendUvarint(body, uint64(len(item)))
			body = append(body, item...)
		}
		switch g.r.IntN(5) {
		case 0:
			body = append(body, 50, 'O', 'A', 'K') // a torn last frame
		case 1:
			body = append(body, 0x80) // a length prefix cut short
		case 2:
			body = append(body, 0x81, 0x00, 'x') // a non-minimal length prefix
		}
	}
	return bodyCase(name, ct, cookie, chunked, body)
}

// TestReportSweep: generated report traffic, small bodies under every
// content type and shape, one tier against the other, seed by seed.
func TestReportSweep(t *testing.T) {
	for _, seed := range sweepSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tr := newTiers(t)
			g := gen{rand.New(rand.NewPCG(seed, 37))}
			for k := 0; k < 12; k++ {
				tr.agree(t, g.draw(fmt.Sprintf("case %d", k)))
			}
		})
	}
}

// pattern is an endless repetition of p.
type pattern struct {
	p   []byte
	off int
}

func (r *pattern) Read(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		c := copy(b[n:], r.p[r.off:])
		n += c
		r.off = (r.off + c) % len(r.p)
	}
	return n, nil
}

// padded is head, then n bytes of the repeated pad, then tail: a body of
// len(head)+n+len(tail) bytes that is never held whole by the test.
func padded(head []byte, pad string, n int64, tail []byte) (int64, func() io.Reader) {
	return int64(len(head)) + n + int64(len(tail)), func() io.Reader {
		p := []byte(strings.Repeat(pad, max(1, 4096/len(pad))))
		return io.MultiReader(bytes.NewReader(head), io.LimitReader(&pattern{p: p}, n), bytes.NewReader(tail))
	}
}

// bigCase is a padded body under both length framings.
func bigCase(name, contentType string, head []byte, pad string, n int64, tail []byte) []sweepCase {
	size, open := padded(head, pad, n, tail)
	return []sweepCase{
		{name: name + ", declared", contentType: contentType, size: size, open: open},
		{name: name + ", chunked", contentType: contentType, size: size, open: open, chunked: true},
	}
}

// TestReportSweepAtTheBounds: bodies at, and one byte over, every bound —
// a single report, one item of a batch, and a whole batch — in all four
// content types, declared and chunked. An item over the bound is a 413 with
// the items before it ingested; a batch over its bound is a 413 with
// nothing ingested, whichever way its length arrives.
func TestReportSweepAtTheBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential, and 64 MiB bodies under the race detector's shadow memory cost more than they check")
	}
	// Each tier stages up to 64 MiB of a body at a time; collect early so
	// the garbage of one case is gone before the next stages its own.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	g := gen{rand.New(rand.NewPCG(7, 37))}
	valid := func(user string) *report.Report {
		return &report.Report{UserID: user, Page: "/p", Entries: []report.Entry{
			{URL: "http://cdn.example/a.js", ServerAddr: "10.0.0.1", SizeBytes: 100, DurationMillis: 50},
		}}
	}
	mustJSON := func(rep *report.Report) []byte {
		b, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	frame := func(payload []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	}
	mustBin := func(rep *report.Report) []byte {
		b, err := rep.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Reports for users on both arcs, so the gateway splits every batch.
	var lines, frames []byte
	for i := 0; i < 6; i++ {
		rep := g.report()
		lines = append(append(lines, mustJSON(rep)...), '\n')
		frames = append(frames, frame(mustBin(rep))...)
	}

	var cases []sweepCase
	for _, over := range []int64{0, 1} {
		at := "at"
		if over == 1 {
			at = "one byte over"
		}
		// A single report: white space inside a JSON object, trailing bytes
		// after an OAKRPT1 payload (a 400 at the bound).
		js := mustJSON(valid("bound-json"))
		cases = append(cases, bigCase("JSON report "+at+" the bound", report.ContentTypeJSON,
			js[:1], " ", reportBound+over-int64(len(js)), js[1:])...)
		bin := mustBin(valid("bound-bin"))
		cases = append(cases, bigCase("OAKRPT1 report "+at+" the bound", report.ContentTypeBinary,
			bin, "\x00", reportBound+over-int64(len(bin)), nil)...)

		// One item of a batch, between two others.
		first, last := mustJSON(valid("item-first")), mustJSON(valid("item-last"))
		b := mustJSON(valid("item-big"))
		cases = append(cases, bigCase("NDJSON line "+at+" the bound", report.ContentTypeNDJSON,
			append(append(first, '\n'), b[:1]...), " ", reportBound+over-int64(len(b)),
			append(append(b[1:], '\n'), last...))...)
		payload := reportBound + over
		head := append(frame(mustBin(valid("item-first"))), binary.AppendUvarint(nil, uint64(payload))...)
		cases = append(cases, bigCase("OAKRPT1 frame "+at+" the bound", report.ContentTypeBinaryBatch,
			head, "\x00", payload, frame(mustBin(valid("item-last"))))...)

		// A whole batch: reports, then blank lines or a torn frame to the bound.
		cases = append(cases, bigCase("NDJSON batch "+at+" the bound", report.ContentTypeNDJSON,
			lines, strings.Repeat(" ", 1<<20-1)+"\n", batchBound+over-int64(len(lines)), nil)...)
		torn := binary.AppendUvarint(bytes.Clone(frames), batchBound)
		cases = append(cases, bigCase("OAKRPT1 batch "+at+" the bound", report.ContentTypeBinaryBatch,
			torn, "\x00", batchBound+over-int64(len(torn)), nil)...)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := newTiers(t).agree(t, c)
			over := strings.Contains(c.name, "over")
			if got := a.status == http.StatusRequestEntityTooLarge; got != over {
				t.Errorf("status %d %q", a.status, a.text)
			}
			t.Logf("%d %+v", a.status, a.res)
		})
	}
}

// TestBatchLineReadsAsItsSingle: a cookie-less NDJSON batch, split at the
// gateway, whose lines carry Unicode spaces around them (U+00A0 after one,
// U+0085 before another) between valid lines: each such line is refused as
// the same bytes POSTed alone are, on both tiers, and the valid lines are
// ingested.
func TestBatchLineReadsAsItsSingle(t *testing.T) {
	tr := newTiers(t)
	line := func(user string) string {
		b, err := (&report.Report{UserID: user, Page: "/p", Entries: []report.Entry{
			{URL: "http://cdn.example/a.js", ServerAddr: "10.0.0.1", SizeBytes: 100, DurationMillis: 50},
		}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	spaced := []string{line("nbsp-user") + "\u00a0", "\u0085" + line("nel-user")}
	for _, l := range spaced {
		if a := tr.agree(t, bodyCase("alone: "+l, report.ContentTypeJSON, "", false, []byte(l))); a.status != http.StatusBadRequest {
			t.Fatalf("%q alone: %d %q, want 400", l, a.status, a.text)
		}
	}
	body := strings.Join([]string{line("sweep-u1"), spaced[0], line("sweep-u2"), spaced[1], line("sweep-u3")}, "\n")
	a := tr.agree(t, bodyCase("batch", report.ContentTypeNDJSON, "", false, []byte(body)))
	if a.res.Submitted != 5 || a.res.Processed != 3 || a.res.Failed != 2 {
		t.Errorf("batch: %d %+v; want 5 submitted, the 3 plain lines processed, the 2 spaced ones failed", a.status, a.res)
	}
}

// TestBatchSamplesCapOnBothTiers: a batch whose reports fail ten distinct
// ways in the engine and four more in decoding answers at most 8 distinct
// samples, direct and through the gateway, under the same counts.
func TestBatchSamplesCapOnBothTiers(t *testing.T) {
	tr := newTiers(t)
	var body []byte
	for i := 0; i < 10; i++ {
		rep := &report.Report{UserID: fmt.Sprintf("cap-u%d", i), Page: "/p"}
		for j := 0; j <= i; j++ {
			rep.Entries = append(rep.Entries, report.Entry{URL: "http://cdn.example/a.js", ServerAddr: "10.0.0.1", DurationMillis: 1})
		}
		rep.Entries[i].URL = "" // "entry i: empty url"
		b, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, b...), '\n')
	}
	for _, line := range malformedJSON[:4] {
		body = append(append(body, line...), '\n')
	}
	a := tr.agree(t, bodyCase("capped samples", report.ContentTypeNDJSON, "", false, body))
	if a.status != http.StatusOK || a.res.Submitted != 14 || a.res.Failed != 14 || len(a.res.Errors) != 8 {
		t.Errorf("answer %d %+v, want 200 with 14 failed and 8 samples", a.status, a.res)
	}
}
