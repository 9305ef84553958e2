package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"oak/internal/report"
	"oak/internal/rules"
)

// gatedEngine builds an engine whose ingest is bounded by a.
func gatedEngine(t *testing.T, a Admission, opts ...Option) *Engine {
	t.Helper()
	opts = append(opts, WithAdmission(a))
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// wedgedEngine builds an engine bounded to one report in flight and parks a
// report inside a tier-3 script fetch, so the bound is saturated until the
// returned release func runs. wedged yields that report's outcome.
func wedgedEngine(t testing.TB, a Admission) (e *Engine, release func(), wedged <-chan error) {
	t.Helper()
	entered := make(chan struct{})
	hold := make(chan struct{})
	fetcher := ScriptFetcherFunc(func(string) (string, error) {
		close(entered)
		<-hold
		return "", nil
	})
	a.MaxInFlight = 1
	e, err := NewEngine([]*rules.Rule{loaderRule()}, WithScriptFetcher(fetcher), WithAdmission(a))
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(func() {
		release()
		e.Close()
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.HandleReport(tier3Report("u-wedged"))
		done <- err
	}()
	<-entered
	if depth, capacity := e.IngestQueue(); depth != 1 || capacity != 1 {
		t.Fatalf("wedged engine depth=%d capacity=%d, want 1/1", depth, capacity)
	}
	return e, release, done
}

// pooledReport decodes a pooled report for user, so a test can check the
// engine handed it back to the pool.
func pooledReport(t *testing.T, user string) *report.Report {
	t.Helper()
	data, err := slowS1Report(user).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.DecodePooled(data)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// submitBatch ingests reports as one batch, the way origin streams a batch
// body: StartBatch, a Submit per report, Wait.
func submitBatch(e *Engine, reports []*report.Report) BatchResult {
	sink := e.StartBatch(context.Background())
	for _, r := range reports {
		sink.Submit(r)
	}
	return sink.Wait()
}

func TestPipelineProcessesReports(t *testing.T) {
	e := gatedEngine(t, Admission{MaxInFlight: 2})
	for i := 0; i < 20; i++ {
		res, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changes) != 1 || res.Changes[0].Action != "activate" {
			t.Fatalf("changes = %+v, want one activation", res.Changes)
		}
	}
	if got := e.Users(); got != 20 {
		t.Errorf("Users() = %d, want 20", got)
	}
	if depth, capacity := e.IngestQueue(); depth != 0 || capacity != 2 {
		t.Errorf("in flight=%d bound=%d, want 0 in flight under a bound of 2", depth, capacity)
	}
}

func TestPipelineRejectsInvalidReport(t *testing.T) {
	e := gatedEngine(t, Admission{MaxInFlight: 1})
	if _, err := e.HandleReport(&report.Report{UserID: "", Page: "/"}); !errors.Is(err, report.ErrNoUserID) {
		t.Errorf("err = %v, want ErrNoUserID", err)
	}
	if depth, _ := e.IngestQueue(); depth != 0 {
		t.Errorf("invalid report holds a slot: in flight = %d", depth)
	}
}

// TestPipelineClosedEngineRejects pins Close's promise on every kind of
// engine: plain, bounded, and one with a spill tier (whose segment files
// Close releases, so a late report must not reach them).
func TestPipelineClosedEngineRejects(t *testing.T) {
	for name, opts := range map[string][]Option{
		"plain": nil,
		"gated": {WithAdmission(Admission{MaxInFlight: 1})},
		"spill": {WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 1})},
	} {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.HandleReport(slowS1Report("early")); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil { // idempotent
				t.Fatal(err)
			}
			rep := pooledReport(t, "late")
			if _, err := e.HandleReport(rep); !errors.Is(err, ErrShuttingDown) {
				t.Errorf("err = %v, want ErrShuttingDown", err)
			}
			if rep.Pooled() {
				t.Error("post-close submission did not release the pooled report")
			}
			if res := submitBatch(e, []*report.Report{slowS1Report("late")}); res.Failed != 1 {
				t.Errorf("post-close batch = %+v, want the report failed", res)
			}
			if _, ok := e.Snapshot("late"); ok {
				t.Error("report after Close mutated a profile")
			}
			if got := e.Metrics().SpillErrors; got != 0 {
				t.Errorf("SpillErrors = %d: a late report reached the closed spill tier", got)
			}
		})
	}
}

// TestPipelineCancelWhileQueued saturates a never-shedding bound and checks
// that a report waiting for room honours ctx cancellation without touching
// a profile, and that its pooled struct goes back to the pool.
func TestPipelineCancelWhileQueued(t *testing.T) {
	e, release, wedged := wedgedEngine(t, Admission{MaxWait: -1})

	ctx, cancel := context.WithCancel(context.Background())
	rep := pooledReport(t, "b")
	errCh := make(chan error, 1)
	go func() {
		_, err := e.HandleReportCtx(ctx, rep)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("waiting report returned %v before room or cancellation", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled wait err = %v, want context.Canceled", err)
	}
	if rep.Pooled() {
		t.Error("cancelled submission did not release the pooled report")
	}

	release()
	if err := <-wedged; err != nil {
		t.Errorf("wedged report failed: %v", err)
	}
	if _, ok := e.Snapshot("b"); ok {
		t.Error("cancelled-while-waiting report mutated the profile")
	}
	if _, ok := e.Snapshot("u-wedged"); !ok {
		t.Error("processed report left no profile")
	}
	if got := e.Metrics().ReportsShed; got != 0 {
		t.Errorf("ReportsShed = %d, a cancelled wait is not a shed", got)
	}
}

func TestHandleBatchWithoutPipeline(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	var reports []*report.Report
	for i := 0; i < 30; i++ {
		reports = append(reports, slowS1Report(fmt.Sprintf("u%d", i)))
	}
	reports = append(reports, &report.Report{UserID: "", Page: "/"}) // invalid
	res := submitBatch(e, reports)
	if res.Submitted != 31 || res.Processed != 30 || res.Failed != 1 {
		t.Fatalf("batch result = %+v", res)
	}
	if len(res.Errors) != 1 {
		t.Errorf("errors = %v, want the one validation message", res.Errors)
	}
	if got := e.Users(); got != 30 {
		t.Errorf("Users() = %d, want 30", got)
	}
}

// TestHandleBatchThroughPipeline runs a batch wider than the bound through
// a never-shedding gate: every report waits its turn and none is lost.
func TestHandleBatchThroughPipeline(t *testing.T) {
	e := gatedEngine(t, Admission{MaxInFlight: 2, MaxWait: -1})
	var reports []*report.Report
	for i := 0; i < 100; i++ {
		reports = append(reports, slowS1Report(fmt.Sprintf("u%d", i)))
	}
	res := submitBatch(e, reports)
	if res.Processed != 100 || res.Failed != 0 {
		t.Fatalf("batch result = %+v", res)
	}
	if got := e.Users(); got != 100 {
		t.Errorf("Users() = %d, want 100", got)
	}
}

// TestBatchIngestRunsOnTheCaller: a batch is ingested report by report on the
// goroutine that submits it — no worker is started however long the batch —
// and once its context is cancelled the remaining reports are released
// unprocessed and counted failed.
func TestBatchIngestRunsOnTheCaller(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	pooled := func(user string) *report.Report {
		wire, err := slowS1Report(user).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r, err := report.DecodePooled(wire)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const total, cancelAt = 1000, 900
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	sink := e.StartBatch(ctx)
	for i := 0; i < total; i++ {
		if i == cancelAt {
			cancel()
		}
		r := pooled(fmt.Sprintf("u%d", i))
		sink.Submit(r)
		if r.Pooled() {
			t.Fatalf("report %d still pooled after Submit: not released", i)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after report %d, %d before the batch: ingest left the caller", n, i, before)
		}
		if got := e.Users(); i < cancelAt && got != i+1 {
			t.Fatalf("%d users after Submit %d returned, want %d: the report was not ingested yet", got, i, i+1)
		}
	}
	res := sink.Wait()
	if res.Submitted != total || res.Processed != cancelAt || res.Failed != total-cancelAt {
		t.Errorf("batch result = %+v, want %d processed and %d failed of %d", res, cancelAt, total-cancelAt, total)
	}
	if got := e.Users(); got != cancelAt {
		t.Errorf("Users() = %d, want %d: a report submitted after the cancel was processed", got, cancelAt)
	}
}

func TestHandleBatchEmpty(t *testing.T) {
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := submitBatch(e, nil)
	if res.Submitted != 0 || res.Processed != 0 || res.Failed != 0 {
		t.Errorf("empty batch result = %+v", res)
	}
}

// TestBatchedIngestRace hammers a bounded engine from many goroutines while
// ExportState, Audit and Users run concurrently — the guard for
// the sharded engine's lock discipline under `go test -race`.
func TestBatchedIngestRace(t *testing.T) {
	e := gatedEngine(t, Admission{MaxInFlight: 4, MaxWait: -1})

	const (
		writers          = 4
		reportsPerWriter = 50
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []*report.Report
			for i := 0; i < reportsPerWriter; i++ {
				batch = append(batch, slowS1Report(fmt.Sprintf("w%d-u%d", w, i)))
			}
			res := submitBatch(e, batch)
			if res.Failed != 0 {
				t.Errorf("writer %d: %d failed: %v", w, res.Failed, res.Errors)
			}
		}(w)
	}

	// Readers run until the writers finish.
	churn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	churn(func() {
		if _, err := e.ExportState(); err != nil {
			t.Error(err)
		}
	})
	churn(func() {
		if _, err := e.Audit(); err != nil {
			t.Error(err)
		}
		e.Users()
		e.Latencies()
		e.IngestQueue()
	})

	done := make(chan struct{})
	go func() {
		// Wait for the writers only, then stop the churners.
		defer close(done)
		for {
			if e.Metrics().ReportsHandled >= writers*reportsPerWriter {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	close(stop)
	wg.Wait()

	if got := e.Users(); got != writers*reportsPerWriter {
		t.Errorf("Users() = %d, want %d", got, writers*reportsPerWriter)
	}
}

// tier3Report builds a report whose violator (evil.example) can only be tied
// to loaderRule through the external-JavaScript tier — processing it makes
// the engine call the script fetcher, which tests use to hold a report in
// flight deterministically.
func tier3Report(user string) *report.Report {
	return &report.Report{UserID: user, Page: "/index.html", Entries: []report.Entry{
		{URL: "http://lib.example/loader.js", ServerAddr: "ip-lib.example", SizeBytes: 1024, DurationMillis: 95, Kind: report.KindScript},
		{URL: "http://evil.example/pixel.png", ServerAddr: "ip-evil.example", SizeBytes: 1024, DurationMillis: 2000, Kind: report.KindImage},
		{URL: "http://a.example/a.png", ServerAddr: "ip-a.example", SizeBytes: 1024, DurationMillis: 100, Kind: report.KindImage},
		{URL: "http://b.example/b.png", ServerAddr: "ip-b.example", SizeBytes: 1024, DurationMillis: 110, Kind: report.KindImage},
	}}
}

// loaderRule references lib.example's loader script but not evil.example, so
// matching evil.example requires fetching the script body.
func loaderRule() *rules.Rule {
	return &rules.Rule{
		ID:      "loader",
		Type:    rules.TypeRemove,
		Default: `<script src="http://lib.example/loader.js"></script>`,
		Scope:   "*",
	}
}

// TestLoadSheddingShedsWhenSaturated: with the bound saturated, a single
// report and every report of a batch are shed — typed, counted, carrying
// the policy's retry hint, released — and nothing is lost or wedged once
// the bound frees up.
func TestLoadSheddingShedsWhenSaturated(t *testing.T) {
	e, release, wedged := wedgedEngine(t, Admission{MaxWait: 5 * time.Millisecond, RetryAfter: 2 * time.Second})

	rep := pooledReport(t, "u-shed")
	_, err := e.HandleReport(rep)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != 2*time.Second {
		t.Errorf("overload error = %#v, want RetryAfter 2s", err)
	}
	if rep.Pooled() {
		t.Error("shed submission did not release the pooled report")
	}
	if got := e.Metrics().ReportsShed; got != 1 {
		t.Errorf("ReportsShed = %d, want 1", got)
	}

	// A batch goes through the same bound, report by report.
	batch := []*report.Report{slowS1Report("b1"), slowS1Report("b2"), slowS1Report("b3")}
	res := submitBatch(e, batch)
	if res.Submitted != 3 || res.Overloaded != 3 || res.Failed != 3 || res.Processed != 0 {
		t.Errorf("saturated batch = %+v, want all three shed", res)
	}
	if res.RetryAfter != 2*time.Second {
		t.Errorf("batch RetryAfter = %v, want 2s", res.RetryAfter)
	}
	if got := e.Metrics().ReportsShed; got != 4 {
		t.Errorf("ReportsShed = %d, want 4", got)
	}

	release()
	if err := <-wedged; err != nil {
		t.Errorf("in-flight report failed: %v", err)
	}
	if depth, _ := e.IngestQueue(); depth != 0 {
		t.Errorf("in flight = %d after drain, want 0", depth)
	}
	if _, err := e.HandleReport(slowS1Report("u-after")); err != nil {
		t.Errorf("report after drain: %v", err)
	}
	if e.Users() != 2 {
		t.Errorf("Users = %d, want 2 (shed reports not processed)", e.Users())
	}
}

func TestLoadSheddingZeroWaitShedsImmediately(t *testing.T) {
	e, _, _ := wedgedEngine(t, Admission{}) // MaxWait 0: no grace at all

	start := time.Now()
	_, err := e.HandleReport(slowS1Report("u-shed"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != DefaultRetryAfter {
		t.Errorf("RetryAfter = %#v, want default %v", err, DefaultRetryAfter)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("immediate shed took %v", elapsed)
	}
}

// TestNoSheddingBlocksInsteadOfRefusing: a negative MaxWait never sheds —
// reports wait for room and succeed once the report ahead of them finishes.
func TestNoSheddingBlocksInsteadOfRefusing(t *testing.T) {
	e, release, wedged := wedgedEngine(t, Admission{MaxWait: -1})

	done := make(chan error, 2)
	for _, u := range []string{"u2", "u3"} {
		u := u
		go func() {
			_, err := e.HandleReport(slowS1Report(u))
			done <- err
		}()
	}
	select {
	case err := <-done:
		t.Fatalf("report returned %v while the bound was saturated", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	for _, ch := range []<-chan error{wedged, done, done} {
		if err := <-ch; err != nil {
			t.Errorf("waiting report failed: %v", err)
		}
	}
	if e.Metrics().ReportsShed != 0 {
		t.Errorf("ReportsShed = %d with shedding off", e.Metrics().ReportsShed)
	}
	if e.Users() != 3 {
		t.Errorf("Users = %d, want 3", e.Users())
	}
}

// TestIngestResultOutlivesScratch: the violations HandleReport returns own
// their servers. Grouping and detection run in a pooled scratch that the
// next report reuses, so a kept result must not alias it: after 1,200 other
// reports, ingested from four goroutines and each grouping other servers,
// hosts and scripts into the same pools, the kept violator reads as it did
// at return.
func TestIngestResultOutlivesScratch(t *testing.T) {
	e := syncEngine(t)
	mk := func(user, tag string, slowMs float64) *report.Report {
		r := &report.Report{UserID: user, Page: "/index.html"}
		add := func(host, addr string, i int, ms float64) {
			r.Entries = append(r.Entries, report.Entry{
				URL:        fmt.Sprintf("http://%s/%s-%d.js", host, tag, i),
				ServerAddr: addr, SizeBytes: 1024, DurationMillis: ms, Kind: report.KindScript,
			})
		}
		for i := range 3 {
			add(tag+"-a.example", "ip-"+tag+"-slow", i, slowMs)
			add(tag+"-b.example", "ip-"+tag+"-slow", i, slowMs)
		}
		for p := range 5 {
			add(fmt.Sprintf("%s-peer%d.example", tag, p), fmt.Sprintf("ip-%s-peer%d", tag, p), p, 100+float64(p))
		}
		return r
	}
	res, err := e.HandleReport(mk("kept", "kept", 2000))
	if err != nil || len(res.Violations) != 1 {
		t.Fatalf("kept report: %v, violations %+v", err, res)
	}
	kept := res.Violations[0].Server
	want := *kept
	want.Hosts = append([]string(nil), kept.Hosts...)
	want.ScriptURLs = append([]string(nil), kept.ScriptURLs...)
	if len(want.Hosts) != 2 || len(want.ScriptURLs) != 6 {
		t.Fatalf("kept violator %+v, want 2 hosts and 6 scripts", want)
	}

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				tag := fmt.Sprintf("g%d-%d", g, i)
				if _, err := e.HandleReport(mk("u-"+tag, tag, 1500+float64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(*kept, want) {
		t.Fatalf("kept violator changed under later ingest:\n got %+v\nwant %+v", *kept, want)
	}
}
