package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/rules"
)

// TestPopulationConcurrentHammer races everything the population layer
// exposes — ingest (which feeds sketches and elects window ticks), status
// reads, snapshot export/import, and the manual mark/clear verbs — on a
// real clock with a tiny window so ticks genuinely interleave with
// traffic. The assertions are loose on purpose; the test exists for the
// race detector.
func TestPopulationConcurrentHammer(t *testing.T) {
	var skew atomic.Int64 // the real clock, moved past a window instead of waiting one out
	e, err := NewEngine([]*rules.Rule{jqRule(0)},
		WithClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }),
		WithSynthesis(SynthesisConfig{
			Window:             5 * time.Millisecond,
			MinSamples:         2,
			MinBaselineSamples: 2,
		}))
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		rounds  = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				user := fmt.Sprintf("u%d-%d", w, i%5)
				ms := 100.0
				if w%2 == 0 {
					ms = 900 // half the fleet reports a slow provider
				}
				if _, err := e.HandleReport(loadReport(user, map[string]float64{
					"s1.com":                     ms,
					fmt.Sprintf("peer%d.com", w): 80,
				})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(3)
	go func() { // status + export reader
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, ok := e.PopulationStatus(); !ok {
				t.Error("PopulationStatus reported disabled on a synthesis engine")
				return
			}
			e.DegradedProviders()
			if _, err := e.ExportSnapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // manual mark/clear flapping
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			e.MarkDegraded("manual.example")
			e.ClearDegraded("manual.example")
		}
	}()
	go func() { // import races against everything else
		defer wg.Done()
		snap, err := e.ExportSnapshot()
		if err != nil {
			t.Error(err)
			return
		}
		e2, err := NewEngine([]*rules.Rule{jqRule(0)},
			WithSynthesis(SynthesisConfig{Window: 5 * time.Millisecond}))
		if err != nil {
			t.Error(err)
			return
		}
		if err := e2.ImportState(snap); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	// Baselines (and so TrackedProviders) only fill when a tick closes a
	// window; on a fast machine the whole hammer can finish inside the
	// first 5ms window with zero ticks. Move the clock past the window and
	// send one more report to force a fold before asserting.
	skew.Add(int64(10 * time.Millisecond))
	if _, err := e.HandleReport(loadReport("u-final", map[string]float64{"s1.com": 100})); err != nil {
		t.Fatal(err)
	}

	ps, ok := e.PopulationStatus()
	if !ok {
		t.Fatal("PopulationStatus disabled after hammer")
	}
	if ps.TrackedProviders == 0 {
		t.Error("no providers tracked after concurrent ingest")
	}
	var total uint64
	for _, p := range ps.Providers {
		total += p.Samples
	}
	if total == 0 && ps.SamplesDropped == 0 {
		t.Error("population sketches saw no samples")
	}
}
