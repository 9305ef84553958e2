package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req. Parent is the span that caused this one (-1: none).
//
// A replayed span was not timed inside its parent: the engine cannot be
// wrapped from outside origin's handler, so after the response the runner
// repeats the handler's calls on a twin engine and times those. Such spans
// are laid end to end from their parent's start, which keeps self time
// "span minus what its children cover" for every span alike and makes "the
// replayed children fit inside the parent" a plain containment test.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Req      int64  `json:"req"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Tag      string `json:"tag,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cursor is where a parent's next replayed child starts.
	cursor map[int32]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cursor: map[int32]int64{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id; -1 while tracing is off.
func (t *tracer) add(s span) int32 {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// mark is the number of spans recorded so far; since(mark) indexes the
// spans recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// adopt gives the spans recorded since mark their request id and parent:
// the runner has one request in flight at a time, so every server span
// recorded while it waited belongs to that request, nested by containment.
func (t *tracer) adopt(mark int, req int64, client int32) []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []int32
	for i := mark; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.ID == client || s.Replayed {
			continue
		}
		s.Req, s.Parent = req, client
		ids = append(ids, s.ID)
	}
	// The enclosing server span (the gateway's) parents the ones inside it.
	for _, a := range ids {
		for _, b := range ids {
			sa, sb := &t.spans[a], &t.spans[b]
			if a != b && sb.Start <= sa.Start && sa.End <= sb.End && sb.Name != sa.Name {
				sa.Parent = b
			}
		}
	}
	return ids
}

// replayUnder records a replayed span of the given duration as the next
// child of parent, placed where parent's previous children end. Without a
// parent (tracing off) it records nothing.
func (t *tracer) replayUnder(parent int32, name, tag string, d time.Duration) int32 {
	if parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.spans[parent]
	start, ok := t.cursor[parent]
	if !ok {
		start = p.Start
	}
	t.cursor[parent] = start + int64(d)
	s := span{ID: int32(len(t.spans)), Parent: parent, Name: name, Req: p.Req, Start: start, End: start + int64(d), Tag: tag, Replayed: true}
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns, for every span, its duration minus what its children
// cover (overlapping children count once). Children are not clipped to the
// parent, so replayed children that do not fit show as negative self time.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i := range spans {
		if spans[i].Parent >= 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// traceFile is what bench/out/trace.<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Spans: spans,
		Note: "times are ns from the start of the traced pass; replayed spans were timed on a twin engine after the response and are laid end to end from their parent's start",
	})
	if err != nil {
		return fmt.Errorf("bench: trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: trace: %w", err)
	}
	return nil
}
