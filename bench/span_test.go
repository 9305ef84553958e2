package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// client [0,100) > gateway [10,90) > origin-a [20,50), origin-b [40,70)
	// (overlapping, as a split batch's two backends are); one root without
	// children.
	spans := []span{
		{ID: 0, Parent: -1, Name: "client", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "gateway", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "origin", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "origin", Start: 40, End: 70},
		{ID: 4, Parent: -1, Name: "client", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := []int64{20, 30, 30, 30, 30} // gateway: 80 - union[20,70) = 30
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestReplayedChildrenAreLaidEndToEnd(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	mark := tr.mark()
	origin := tr.add(span{Parent: -1, Req: -1, Name: "origin", Tag: "0", Start: 1000, End: 1100})
	client := tr.add(span{Parent: -1, Req: 7, Name: "client", Tag: "report", Start: 900, End: 1200})
	ids := tr.adopt(mark, 7, client)
	if len(ids) != 1 || ids[0] != origin || tr.spans[origin].Parent != client || tr.spans[origin].Req != 7 {
		t.Fatalf("adopt: ids %v, origin %+v", ids, tr.spans[origin])
	}
	a := tr.replayUnder(origin, "report.decode_json", "", 30*time.Nanosecond)
	b := tr.replayUnder(origin, "core.ingest", "", 50*time.Nanosecond)
	c := tr.replayUnder(b, "core.analyze", "", 20*time.Nanosecond)
	if s := tr.spans[a]; s.Start != 1000 || s.End != 1030 || !s.Replayed || s.Req != 7 {
		t.Fatalf("first replayed child %+v", s)
	}
	if s := tr.spans[b]; s.Start != 1030 || s.End != 1080 {
		t.Fatalf("second replayed child %+v", s)
	}
	if s := tr.spans[c]; s.Start != 1030 || s.End != 1050 || s.Parent != b {
		t.Fatalf("grandchild %+v", s)
	}
	self := selfTimes(tr.spans)
	if self[origin] != 20 || self[b] != 30 || self[client] != 200 {
		t.Fatalf("self times origin %d ingest %d client %d, want 20 30 200", self[origin], self[b], self[client])
	}
	// Children that do not fit show as negative self time.
	tr.replayUnder(origin, "core.ingest", "", 40*time.Nanosecond)
	if got := selfTimes(tr.spans)[origin]; got != -20 {
		t.Fatalf("overfull parent self time %d, want -20", got)
	}
	// With tracing off nothing is recorded and replays have no parent.
	tr.on.Store(false)
	n := len(tr.spans)
	if id := tr.add(span{Name: "client"}); id != -1 || tr.replayUnder(-1, "x", "", time.Second) != -1 || len(tr.spans) != n {
		t.Fatal("spans recorded while tracing is off")
	}
}
