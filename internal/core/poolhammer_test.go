package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oak/internal/report"
	"oak/internal/rules"
)

// syncEngine is an engine with unbounded admission.
func syncEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// Pooled-report lifecycle tests. A report from report.DecodePooled is owned
// by the engine from the submit call on, and must be released exactly once
// on every path out of ingest: processed, validation-failed, cancelled while
// waiting for admission, shed, engine closed. A double release puts the same *Report into
// the pool twice, so two concurrent decoders end up writing the same struct
// — which is exactly the kind of corruption the race detector flags. The
// hammer below mixes all the exit paths under -race to pin that discipline.

// hammerPayloads pre-marshals JSON reports for a small user population so
// the hammer spends its time in decode+submit, not fmt.
func hammerPayloads(t testing.TB, users int) [][]byte {
	t.Helper()
	payloads := make([][]byte, users)
	for i := range payloads {
		data, err := slowS1Report(fmt.Sprintf("hammer-%d", i)).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = data
	}
	return payloads
}

// TestPooledReleaseHammer drives pooled reports through a tight, easily
// saturated admission bound from many goroutines while randomly cancelling
// submissions and finally closing the engine mid-flight, so the processed,
// shed, cancelled-while-waiting and closed exit paths all fire concurrently
// with pool reuse. Run under -race this catches a report released twice
// (two decoders sharing one struct) or not at all being resurrected dirty.
// The shed, cancelled and closed exits are also pinned one by one, with a
// Pooled() check each, in ingest_test.go.
func TestPooledReleaseHammer(t *testing.T) {
	e := gatedEngine(t, Admission{MaxInFlight: 2, MaxWait: 50 * time.Microsecond})
	payloads := hammerPayloads(t, 8)

	const goroutines = 8
	const perGoroutine = 400
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perGoroutine; i++ {
				rep, err := report.DecodePooled(payloads[rng.Intn(len(payloads))])
				if err != nil {
					errCh <- err
					return
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(3) == 0 {
					// A third of the submissions race a cancellation, so some
					// are refused on entry and some give up waiting for room.
					ctx, cancel = context.WithCancel(ctx)
					go cancel()
				}
				_, err = e.HandleReportCtx(ctx, rep)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
				case errors.Is(err, ErrOverloaded):
				case errors.Is(err, context.Canceled):
				case errors.Is(err, ErrShuttingDown):
				default:
					errCh <- fmt.Errorf("unexpected submit error: %w", err)
					return
				}
			}
		}(g)
	}

	// Close the engine while submissions are still in flight: Close waits
	// for the reports being processed, late submissions take the closed
	// path — both must still release.
	time.Sleep(5 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The closed path releases too: a post-close submission must hand its
	// report back to the pool, not leak it.
	rep, err := report.DecodePooled(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReportCtx(context.Background(), rep); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-close submit err = %v, want ErrShuttingDown", err)
	}
	if rep.Pooled() {
		t.Error("post-close submission did not release the pooled report")
	}
}

// TestPooledReleaseOnValidationFailure pins the synchronous failure exit: a
// pooled report the engine rejects before touching any shard is still
// released by the engine, per the ownership contract.
func TestPooledReleaseOnValidationFailure(t *testing.T) {
	e := syncEngine(t)
	rep, err := report.DecodePooled([]byte(`{"userId":"","page":"/x","entries":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(rep); !errors.Is(err, report.ErrNoUserID) {
		t.Fatalf("err = %v, want ErrNoUserID", err)
	}
	if rep.Pooled() {
		t.Error("validation-failed submission did not release the pooled report")
	}
}

// TestHandleReportSteadyStateAllocs gates the steady-state allocation budget
// of the synchronous JSON ingest path (the BenchmarkHandleReportSerial
// shape): the violations slice, the violator's summary copied out of the
// ingest scratch, the analysis result and its two detail strings. The budget
// is ≤ 8 allocs/op; a regression here
// means a scratch buffer or pool stopped being reused.
func TestHandleReportSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := syncEngine(t)
	reports := make([]*report.Report, 8)
	for i := range reports {
		reports[i] = slowS1Report(fmt.Sprintf("alloc-%d", i))
	}
	// Warm up: create the profiles, size the scratch pools and maps.
	for range 4 {
		for _, r := range reports {
			if _, err := e.HandleReport(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.HandleReport(reports[i%len(reports)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 8 {
		t.Errorf("steady-state HandleReport allocs/op = %.1f, want <= 8", avg)
	}
}
