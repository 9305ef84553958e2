package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/report"
)

// The serve path reads the spill tier in place (PR 18): only ingest changes
// where a profile lives. These tests pin the rule with a reader racing an
// eviction storm, the tier's durable state across ten thousand reads, and a
// record that cannot be read; TestEngineAgreesWithModel holds capped engines
// to the same pages as uncapped ones.

const viewPage = `<html><script src="http://s1.com/jquery.js"></script>` +
	`<script src="http://ads.example/ad.js"></script></html>`

// serveAsOrigin asks for a page the way origin.rewriteBudgeted does: the
// near-free cached answer first, the full path when that declines.
func serveAsOrigin(e *Engine, uid string) Rewrite {
	if rw, ok := e.RewriteCached(uid, "/index.html", viewPage); ok {
		return rw
	}
	return e.RewritePage(uid, "/index.html", viewPage)
}

// healthyReport is a report with no violator.
func healthyReport(user string) *report.Report {
	return loadReport(user, map[string]float64{
		"s1.com": 102, "a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	})
}

// TestServeSpilledUserUnderEvictionStorm: the old serve path dropped the
// read lock to rehydrate and retook it, so an eviction pass in between could
// re-spill the user, and after a bounded number of lost races a user with an
// active rule was served the untouched page. The in-place view has no such
// window: whatever ingest does to the shard around it, every answer for the
// activated user carries their alternative, and no read moves them.
func TestServeSpilledUserUnderEvictionStorm(t *testing.T) {
	clock := newTestClock()
	// Per-shard cap 1: every ingest evicts the whole shard.
	e := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 1}, WithRewriteCache(16))
	if _, err := e.HandleReport(slowS1Report("hot")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(healthyReport("other-0")); err != nil {
		t.Fatal(err)
	}
	if got := e.Residency("hot"); got != "spilled" {
		t.Fatalf("Residency(hot) = %q, want spilled before the storm", got)
	}

	var stop atomic.Bool
	var ingest, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		ingest.Add(1)
		go func(g int) {
			defer ingest.Done()
			for i := 0; !stop.Load(); i++ {
				uid := fmt.Sprintf("other-%d", (i*2+g)%8)
				if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	const reads = 400
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < reads; i++ {
				if rw := e.RewritePage("hot", "/index.html", viewPage); !strings.Contains(rw.HTML, "s2.net") {
					t.Errorf("read %d: RewritePage served the activated user an unrewritten page", i)
					return
				}
				if rw, ok := e.RewriteCached("hot", "/index.html", viewPage); ok && !strings.Contains(rw.HTML, "s2.net") {
					t.Errorf("read %d: RewriteCached answered without the alternative", i)
					return
				}
				if e.ActivationFingerprint("hot", "/index.html") == 0 {
					t.Errorf("read %d: fingerprint 0 for a user with an active rule", i)
					return
				}
				if got := e.Residency("hot"); got != "spilled" {
					t.Errorf("read %d: Residency(hot) = %q; a read moved the profile", i, got)
					return
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	ingest.Wait()
	if st, _ := e.SpillStatus(); st.RecordViews == 0 {
		t.Error("RecordViews = 0: the activated user's record was never read in place")
	}
}

// spillTierState is everything a page read must leave alone.
type spillTierState struct {
	Status SpillStatus
	Dead   map[uint64]int64 // segment seq → dead records
	Files  map[string]int64 // directory listing: name → size
	Export []byte
}

func captureSpillTier(t *testing.T, e *Engine, dir string) spillTierState {
	t.Helper()
	st, _ := e.SpillStatus()
	st.RecordViews = 0 // the one counter reads are meant to move
	s := spillTierState{Status: st, Dead: map[uint64]int64{}, Files: map[string]int64{}}
	for _, seg := range e.spill.log.Segments() {
		s.Dead[seg.Seq] = seg.Dead.Load()
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		s.Files[ent.Name()] = info.Size()
	}
	if s.Export, err = e.ExportState(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPageReadsNeverWriteTheSpillTier is the invariant itself: serve-side
// reads of spilled users — with and without activations, through every
// entry point — change nothing durable and move no profile. On the parent
// commit every cold read was a rehydration, and a spill append (with its
// fsync) within a few reads.
func TestPageReadsNeverWriteTheSpillTier(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 4, SegmentBytes: 2048}, WithRewriteCache(16))
	const users = 40
	for i := 0; i < users; i++ {
		uid := fmt.Sprintf("u%02d", i)
		r := healthyReport(uid)
		if i%2 == 0 {
			r = slowS1Report(uid) // activates jquery
		}
		if _, err := e.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	var spilled []string
	activated := map[string]bool{}
	for i := 0; i < users; i++ {
		if uid := fmt.Sprintf("u%02d", i); e.Residency(uid) == "spilled" {
			spilled = append(spilled, uid)
			activated[uid] = i%2 == 0
		}
	}
	if len(spilled) < users-4 {
		t.Fatalf("only %d of %d users spilled; the cap did not bite", len(spilled), users)
	}

	before := captureSpillTier(t, e, dir)
	const reads = 10000
	for i := 0; i < reads; i++ {
		uid := spilled[i%len(spilled)]
		want := activated[uid]
		switch (i / len(spilled)) % 4 {
		case 0:
			if rw := serveAsOrigin(e, uid); strings.Contains(rw.HTML, "s2.net") != want {
				t.Fatalf("read %d: page for %s rewritten = %v, want %v", i, uid, !want, want)
			}
		case 1:
			if got := len(e.ActiveRules(uid, "/index.html")) == 1; got != want {
				t.Fatalf("read %d: ActiveRules(%s) non-empty = %v, want %v", i, uid, got, want)
			}
		case 2:
			if got := e.ActivationFingerprint(uid, "/index.html") != 0; got != want {
				t.Fatalf("read %d: fingerprint(%s) non-zero = %v, want %v", i, uid, got, want)
			}
		case 3:
			snap, ok := e.Snapshot(uid)
			if !ok || (len(snap.ActiveRules) == 1) != want {
				t.Fatalf("read %d: Snapshot(%s) = %+v, %v; want activated = %v", i, uid, snap, ok, want)
			}
		}
		// A read that took the shard's write lock could only have been
		// installing or dropping this user.
		if got := e.Residency(uid); got != "spilled" {
			t.Fatalf("read %d moved %s: residency %q", i, uid, got)
		}
	}
	after := captureSpillTier(t, e, dir)
	if !reflect.DeepEqual(before.Status, after.Status) {
		t.Errorf("SpillStatus changed across %d reads:\n before %+v\n after  %+v", reads, before.Status, after.Status)
	}
	if !reflect.DeepEqual(before.Dead, after.Dead) {
		t.Errorf("segment dead counts changed: %v -> %v", before.Dead, after.Dead)
	}
	if !reflect.DeepEqual(before.Files, after.Files) {
		t.Errorf("spill directory changed: %v -> %v", before.Files, after.Files)
	}
	if !bytes.Equal(before.Export, after.Export) {
		t.Error("ExportState changed across page reads")
	}
	if m := e.Metrics(); m.Rehydrations != 0 {
		t.Errorf("Rehydrations = %d after reads only", m.Rehydrations)
	}
	// Only records that carry an activation are ever read for a page; the
	// others are answered from the ref. Snapshots read every record.
	st, _ := e.SpillStatus()
	if st.RecordViews == 0 || st.RecordViews >= reads {
		t.Errorf("RecordViews = %d over %d reads, want some but not one per read", st.RecordViews, reads)
	}
}

// TestUnreadableRecordServesTheUntouchedPage: a spilled record that cannot be
// read serves its user the untouched page, and the write-locked rehydrate —
// not the view — decides what the failure means.
func TestUnreadableRecordServesTheUntouchedPage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, fs *testFS, seg string)
		check  func(t *testing.T, st SpillStatus)
	}{
		{
			name: "read fails",
			damage: func(t *testing.T, fs *testFS, seg string) {
				fs.setRefuse(func(op, path string) error {
					if op == "read" && path == seg {
						return errors.New("injected read failure")
					}
					return nil
				})
			},
			check: func(t *testing.T, st SpillStatus) {
				if !st.MemoryOnly || len(st.QuarantinedSegments) != 0 {
					t.Errorf("I/O failure: %+v, want memory-only and nothing quarantined", st)
				}
			},
		},
		{
			name:   "record damaged",
			damage: func(t *testing.T, _ *testFS, seg string) { flipSegByte(t, seg) },
			check: func(t *testing.T, st SpillStatus) {
				if st.MemoryOnly || len(st.QuarantinedSegments) != 1 {
					t.Errorf("damage: %+v, want one quarantined segment and no memory-only latch", st)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newTestClock()
			dir := t.TempDir()
			fs := &testFS{}
			e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100}, WithRewriteCache(16), withFS(fs))
			for _, uid := range []string{"hit", "bystander"} {
				if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
					t.Fatal(err)
				}
			}
			forceSpill(t, e, "hit")
			segs := segFiles(t, dir)
			if len(segs) != 1 {
				t.Fatalf("segment files = %d, want 1", len(segs))
			}
			tc.damage(t, fs, segs[0])

			if rw := serveAsOrigin(e, "hit"); rw.HTML != viewPage || rw.ETag != "" {
				t.Errorf("unreadable record: served %q tag %q, want the untouched page", rw.HTML, rw.ETag)
			}
			if got := e.Residency("hit"); got != "none" {
				t.Errorf("Residency(hit) = %q, want none (ref dropped with its record)", got)
			}
			if rw := serveAsOrigin(e, "bystander"); !strings.Contains(rw.HTML, "s2.net") {
				t.Error("resident bystander stopped being served")
			}
			st, _ := e.SpillStatus()
			if st.SpillErrors != 1 || st.RecordViews != 0 || !e.SpillDegraded() {
				t.Errorf("SpillErrors = %d, RecordViews = %d, degraded = %v; want 1, 0, true",
					st.SpillErrors, st.RecordViews, e.SpillDegraded())
			}
			tc.check(t, st)
		})
	}
}
