package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"oak/internal/seglog"
	"oak/internal/wire"
)

// TestSpillIndexAgreesWithAMap drives the spill index and a map through one
// seeded stream of puts, gets and deletes — enough churn to grow, rehash and
// compact the key blob — and requires the same answers, the same len and the
// same entries from each, whose keys keep their bytes after the index moves on.
func TestSpillIndexAgreesWithAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x spillIndex
	want := map[string]spillRef{}
	kept := map[string][]byte{} // keys each handed out, held across later puts
	for i := 0; i < 200000; i++ {
		uid := fmt.Sprintf("user-%d", rng.Intn(3000))
		ref := spillRef{off: int64(i), n: int32(rng.Intn(100) + 1), ver: uint64(i)}
		switch op := rng.Intn(10); {
		case op < 4:
			old, replaced := x.put(uid, ref)
			prev, had := want[uid]
			if replaced != had || old != prev {
				t.Fatalf("op %d: put(%s) = %+v, %v; the map had %+v, %v", i, uid, old, replaced, prev, had)
			}
			want[uid] = ref
		case op < 7:
			got, ok := x.get(uid)
			if prev, had := want[uid]; ok != had || got != prev {
				t.Fatalf("op %d: get(%s) = %+v, %v; the map has %+v, %v", i, uid, got, ok, prev, had)
			}
		case op < 9:
			got, ok := x.del(uid)
			if prev, had := want[uid]; ok != had || got != prev {
				t.Fatalf("op %d: del(%s) = %+v, %v; the map had %+v, %v", i, uid, got, ok, prev, had)
			}
			delete(want, uid)
		default:
			// Delete a random tenth through each.
			x.each(func(key []byte, ref spillRef) bool {
				kept[string(key)] = key
				if rng.Intn(10) == 0 {
					delete(want, string(key))
					return true
				}
				return false
			})
		}
		if x.len() != len(want) {
			t.Fatalf("op %d: len %d, the map %d", i, x.len(), len(want))
		}
	}
	got := map[string]spillRef{}
	x.each(func(key []byte, ref spillRef) bool { got[string(key)] = ref; return false })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("each yields %d entries, the map holds %d", len(got), len(want))
	}
	for uid, key := range kept {
		if string(key) != uid {
			t.Fatalf("a key handed out as %q reads %q now", uid, key)
		}
	}
}

// TestSpillIndexProbeAllocatesNothing: a get, a delete and a put of a key the
// index has room for allocate nothing, by string or by bytes.
func TestSpillIndexProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var x spillIndex
	x.init(1000, 16000)
	uids := make([]string, 1000)
	keys := make([][]byte, 1000)
	for i := range uids {
		uids[i] = fmt.Sprintf("oak-%032x", i)
		keys[i] = []byte(uids[i])
		x.put(uids[i], spillRef{off: int64(i)})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		uid, key := uids[i%len(uids)], keys[i%len(keys)]
		i++
		ref, _ := x.get(uid)
		x.del(uid)
		x.putKey(key, ref)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per get, del and putKey, want 0", allocs)
	}
}

// BenchmarkSpillIndex is the probes a touch of a non-resident user makes —
// a get, then a delete and a put when the profile moves — against one
// shard's 2,500 spilled users, on the spill index and on the map it replaced.
func BenchmarkSpillIndex(b *testing.B) {
	const users = 2500
	uids := make([]string, users)
	for i := range uids {
		uids[i] = fmt.Sprintf("oak-%032x", i*7919)
	}
	b.Run("get/index", func(b *testing.B) {
		var x spillIndex
		for i, uid := range uids {
			x.put(uid, spillRef{off: int64(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.get(uids[i%users])
		}
	})
	b.Run("get/map", func(b *testing.B) {
		m := map[string]spillRef{}
		for i, uid := range uids {
			m[uid] = spillRef{off: int64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m[uids[i%users]]
		}
	})
	b.Run("del+put/index", func(b *testing.B) {
		var x spillIndex
		for i, uid := range uids {
			x.put(uid, spillRef{off: int64(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref, _ := x.del(uids[i%users])
			x.put(uids[i%users], ref)
		}
	})
	b.Run("del+put/map", func(b *testing.B) {
		m := map[string]spillRef{}
		for i, uid := range uids {
			m[uid] = spillRef{off: int64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uid := uids[i%users]
			ref := m[uid]
			delete(m, uid)
			m[uid] = ref
		}
	})
}

// copyBothWays copies the files of the spill directory dir into two fresh
// directories, the second with its checkpoint's index taken out
// (withoutIndex).
func copyBothWays(t *testing.T, dir string) (with, without string) {
	t.Helper()
	root := t.TempDir()
	with, without = filepath.Join(root, "with"), filepath.Join(root, "without")
	for _, d := range []string{with, without} {
		if err := os.Mkdir(d, 0o700); err != nil {
			t.Fatal(err)
		}
		copyDir(t, dir, d)
	}
	withoutIndex(t, without)
	return with, without
}

// withoutIndex rewrites the checkpoint of the spill directory dir with its
// header alone, and removes its backup: a boot then takes the guard and the
// population from it and decodes every record, last record winning.
func withoutIndex(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, checkpointName)
	os.Remove(path + BackupSuffix)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return
	}
	st, err := decodeCheckpoint(data)
	if err != nil {
		os.Remove(path) // a damaged checkpoint is no help either way
		return
	}
	header, err := json.Marshal(checkpointHeader{persistedState: *st})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, wire.AppendFrame([]byte(seglog.Magic), header), 0o600); err != nil {
		t.Fatal(err)
	}
}

// bootsAgree boots boot on two copies of the spill directory dir — one with
// the checkpoint's index, one without — and requires the two engines to be
// one, as they are wherever no authoritative import dropped a user:
// equal exports, user counts and spill status, and byte-equal pages with equal
// tags for every user. It returns the indexed boot's status.
func bootsAgree(t *testing.T, step, dir string, users []string, boot func(dir string) *Engine) BootStatus {
	t.Helper()
	with, without := copyBothWays(t, dir)
	a := boot(with)
	defer a.Close()
	b := boot(without)
	defer b.Close()
	if ae, be := mustExport(t, a), mustExport(t, b); !bytes.Equal(ae, be) {
		t.Fatalf("%s: exports differ with the index and without:\n--- with\n%s\n--- without\n%s", step, ae, be)
	}
	as, _ := a.SpillStatus()
	bs, _ := b.SpillStatus()
	if a.Users() != b.Users() || !reflect.DeepEqual(as, bs) {
		t.Fatalf("%s: with the index %d users, %+v; without %d users, %+v", step, a.Users(), as, b.Users(), bs)
	}
	// The cleaner's view too: each segment's record and dead counts, and the
	// records resident users' refs hold.
	if ac, bc := segmentCounts(a), segmentCounts(b); !reflect.DeepEqual(ac, bc) {
		t.Fatalf("%s: segment counts (total, dead, resident refs) %v with the index, %v without", step, ac, bc)
	}
	for _, uid := range users {
		if pa, pb := serveAsOrigin(a, uid), serveAsOrigin(b, uid); pa.HTML != pb.HTML || pa.ETag != pb.ETag {
			t.Fatalf("%s: %s served %q (tag %q) with the index, %q (tag %q) without", step, uid, pa.HTML, pa.ETag, pb.HTML, pb.ETag)
		}
	}
	if b.BootStatus().IndexAdopted != 0 {
		t.Fatalf("%s: a boot without an index adopted one", step)
	}
	return a.BootStatus()
}

// segmentCounts maps each segment in service to its record count, dead count
// and the records in it that resident users' refs point at.
func segmentCounts(e *Engine) map[uint64][3]int64 {
	out := map[uint64][3]int64{}
	for _, seg := range e.spill.log.Segments() {
		out[seg.Seq] = [3]int64{seg.Total.Load(), seg.Dead.Load()}
	}
	for _, sh := range e.shards {
		sh.mu.RLock()
		for uid := range sh.profiles {
			if ref, ok := sh.spilled.get(uid); ok {
				c := out[ref.seg.Seq]
				c[2]++
				out[ref.seg.Seq] = c
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// indexWorld is a capped two-shard engine after 60 users' worth of reports,
// evictions, rehydrations and a compaction, over small segments, with its
// checkpoint just saved.
func indexWorld(t *testing.T, opts ...Option) (e *Engine, dir, state string, users []string) {
	t.Helper()
	root := t.TempDir()
	dir, state = filepath.Join(root, "spill"), filepath.Join(root, "state.json")
	clock := newTestClock()
	e = indexWorldEngine(t, dir, append([]Option{WithClock(clock.Now)}, opts...)...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		users = append(users, fmt.Sprintf("u%02d", i))
	}
	for i := 0; i < 400; i++ {
		clock.Advance(time.Second)
		r := healthyReport(users[rng.Intn(len(users))])
		if rng.Intn(3) == 0 {
			r = slowS1Report(r.UserID)
		}
		if _, err := e.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		if i == 200 {
			if err := e.SaveStateFile(state); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.SpillStatus(); st.Segments < 4 || st.SegmentCompactions == 0 || st.ProfilesSpilled < 40 {
		t.Fatalf("world too quiet: %+v", st)
	}
	return e, dir, state, users
}

func indexWorldEngine(t *testing.T, dir string, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(diffRules()[:1], append([]Option{WithShards(2), WithRewriteCache(16),
		WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 12, SegmentBytes: 1200, CompactRatio: 0.4})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestSpillIndexFallback: a checkpoint whose index does not fit the directory
// is not adopted, and the boot decodes the whole log — one row per way it can
// fail to fit — to the export and status the boot without any index gives.
// The first rows fit: the boot adopts every entry, from the checkpoint or,
// when it is damaged, from its backup.
func TestSpillIndexFallback(t *testing.T) {
	sealed := func(t *testing.T, e *Engine) *seglog.Segment {
		t.Helper()
		var victim *seglog.Segment
		for _, seg := range e.spill.log.Segments() {
			if !seg.Active.Load() && (victim == nil || seg.Seq < victim.Seq) {
				victim = seg
			}
		}
		if victim == nil {
			t.Fatal("no sealed segment")
		}
		return victim
	}
	ckpt := func(dir string) string { return filepath.Join(dir, checkpointName) }
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	damaged := func(edit func([]byte) []byte) func(t *testing.T, _ *Engine, dir string) {
		return func(t *testing.T, _ *Engine, dir string) {
			os.Remove(ckpt(dir) + BackupSuffix)
			rewrite(t, ckpt(dir), edit)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, e *Engine, dir string) // e is still running
		why    string                                    // in IndexFallback; "" for a fit
		backup bool                                      // the fit is the backup's
	}{
		{name: "fits", damage: func(*testing.T, *Engine, string) {}},
		{name: "the backup", backup: true, damage: func(t *testing.T, e *Engine, dir string) {
			if err := e.SaveStateFile(filepath.Join(t.TempDir(), "state.json")); err != nil { // the last save is the backup
				t.Fatal(err)
			}
			rewrite(t, ckpt(dir), func(b []byte) []byte { b[len(b)/2] ^= 1; return b })
		}},
		{name: "a covered segment compacted away after the checkpoint", damage: func(t *testing.T, e *Engine, _ string) {
			e.compactSegment(sealed(t, e))
		}},
		{name: "missing", why: "no checkpoint", damage: func(t *testing.T, _ *Engine, dir string) {
			os.Remove(ckpt(dir))
			os.Remove(ckpt(dir) + BackupSuffix)
		}},
		{name: "empty", why: "checkpoint unusable", damage: damaged(func([]byte) []byte { return nil })},
		{name: "torn", why: "checkpoint unusable", damage: damaged(func(b []byte) []byte { return b[:len(b)/2] })},
		{name: "one flipped byte", why: "checkpoint unusable", damage: damaged(func(b []byte) []byte { b[len(b)/2] ^= 1; return b })},
		{name: "wrong magic", why: "magic", damage: damaged(func(b []byte) []byte { b[0] = 'X'; return b })},
		{name: "a covered segment truncated", why: "shorter than at the checkpoint", damage: func(t *testing.T, e *Engine, _ string) {
			seg := sealed(t, e)
			if err := os.Truncate(filepath.Join(e.spill.cfg.Dir, seg.Name()), seg.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "a covered segment hole-punched", why: "quarantined", damage: func(t *testing.T, e *Engine, _ string) {
			seg := sealed(t, e)
			rewrite(t, filepath.Join(e.spill.cfg.Dir, seg.Name()), func(b []byte) []byte {
				clear(b[len(b)/3 : len(b)/3+64])
				return b
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, dir, state, users := indexWorld(t)
			tc.damage(t, e, dir)
			e.Close()
			var lines []string
			bs := bootsAgree(t, tc.name, dir, users, func(dir string) *Engine {
				e := indexWorldEngine(t, dir, WithClock(newTestClock().Now),
					WithLogf(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }))
				if _, err := e.LoadStateFile(state); err != nil {
					t.Fatal(err)
				}
				return e
			})
			switch {
			case tc.why == "" && (bs.IndexFallback != "" || bs.IndexAdopted == 0 || bs.Decoded >= bs.Checksummed):
				t.Errorf("a fitting index was not adopted: %+v", bs)
			case tc.why == "" && strings.HasSuffix(bs.Checkpoint, BackupSuffix) != tc.backup:
				t.Errorf("adopted %q, want the backup: %v", bs.Checkpoint, tc.backup)
			case tc.why != "" && (bs.IndexAdopted != 0 || !strings.Contains(bs.IndexFallback, tc.why) || bs.Decoded != bs.Checksummed):
				t.Errorf("boot status %+v, want no entry adopted, every record decoded and a fallback naming %q", bs, tc.why)
			}
			if tc.why == "quarantined" {
				if bs.QuarantinedSegments != 1 || !strings.Contains(strings.Join(lines, "\n"), "users its readable frames name have no other record") {
					t.Errorf("the punched segment was not quarantined at boot with its lost users counted: %+v\n%s", bs, strings.Join(lines, "\n"))
				}
			}
			t.Logf("%s: %d entries adopted from %q, %d bytes checksummed, %d decoded; fallback %q",
				tc.name, bs.IndexAdopted, filepath.Base(bs.Checkpoint), bs.Checksummed, bs.Decoded, bs.IndexFallback)
		})
	}
}

// TestIndexedBootDropsRecordsWithoutAnEntry: a record the checkpoint's index
// covers but has no entry for is dead, though no later record outdates it —
// the records of the users an authoritative import dropped, one resident over
// an older record and one spilled. So the dropped users stay dropped across a
// restart; the whole-log decode, all a boot had before the index was
// authoritative, brings them back.
func TestIndexedBootDropsRecordsWithoutAnEntry(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "state.json")
	boot := func(dir string) *Engine {
		return newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	}
	e := boot(dir)
	users := []string{"rehydrated", "dropped", "resident-dropped", "kept"}
	for _, uid := range users {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	forceSpill(t, e, users...)
	clock.Advance(time.Second)
	for _, uid := range []string{"rehydrated", "resident-dropped"} { // resident over their refs
		if _, err := e.HandleReport(healthyReport(uid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	payload, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st persistedState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	st.Profiles = slices.DeleteFunc(st.Profiles, func(pp persistedProfile) bool { return strings.HasSuffix(pp.UserID, "dropped") })
	if payload, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := e.ImportState(payload); err != nil { // drops every ref, not the records
		t.Fatal(err)
	}
	want := mustExport(t, e)
	e.Close()
	with, without := copyBothWays(t, dir)
	a := boot(with)
	if got := mustExport(t, a); !bytes.Equal(got, want) {
		t.Errorf("the boot brought back what the import dropped:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if bs := a.BootStatus(); bs.IndexFallback != "" || bs.IndexAdopted != 2 || a.Users() != 2 {
		t.Errorf("boot status %+v, %d users; want the index adopted, 2 entries, 2 users", bs, a.Users())
	}
	b := boot(without)
	for _, uid := range []string{"dropped", "resident-dropped"} {
		if a.Residency(uid) != "none" || b.Residency(uid) != "spilled" {
			t.Errorf("%s is %q with the index, %q decoding the whole log; want none and spilled", uid, a.Residency(uid), b.Residency(uid))
		}
	}
}

// TestEntriesInAGoneSegmentAreDead: a covered segment gone since the
// checkpoint — removed from outside here, so none of the records refs point
// at in it was written again, as the cleaner would have — takes the users of
// its entries with it, as it takes their records. The index is still adopted,
// and every other user comes back as the whole-log decode brings them back.
func TestEntriesInAGoneSegmentAreDead(t *testing.T) {
	e, dir, _, users := indexWorld(t)
	refs := map[*seglog.Segment][]string{}
	for _, sh := range e.shards {
		sh.spilled.each(func(uid []byte, ref spillRef) bool {
			refs[ref.seg] = append(refs[ref.seg], string(uid))
			return false
		})
	}
	var victim *seglog.Segment
	for seg, uids := range refs {
		if !seg.Active.Load() && (victim == nil || len(uids) > len(refs[victim])) {
			victim = seg
		}
	}
	if victim == nil {
		t.Fatal("no sealed segment holds a ref")
	}
	e.Close()
	if err := os.Remove(filepath.Join(dir, victim.Name())); err != nil {
		t.Fatal(err)
	}
	with, without := copyBothWays(t, dir)
	a := indexWorldEngine(t, with, WithClock(newTestClock().Now))
	b := indexWorldEngine(t, without, WithClock(newTestClock().Now))
	if bs := a.BootStatus(); bs.IndexFallback != "" || bs.IndexAdopted != len(users)-len(refs[victim]) {
		t.Errorf("boot status %+v; want the index adopted, all but the %d entries in %s", bs, len(refs[victim]), victim.Name())
	}
	for _, uid := range users {
		got, ok := a.Snapshot(uid)
		if slices.Contains(refs[victim], uid) {
			if ok {
				t.Errorf("%s came back, its entry's record gone with %s", uid, victim.Name())
			}
			continue
		}
		if want, wok := b.Snapshot(uid); ok != wok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s came back as %+v (%v); the whole-log decode brings back %+v (%v)", uid, got, ok, want, wok)
		}
	}
}

// TestIndexedBootAllocs: a boot over 20,000 users with a valid index
// allocates nothing per user. Decoding each record into a map took about 2.7
// objects a user.
func TestIndexedBootAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const users = 20000
	dir, _ := writeSpilledWorld(t, users)
	var bs BootStatus
	allocs := testing.AllocsPerRun(3, func() {
		e := bootedWorldEngine(t, dir)
		bs = e.BootStatus()
		e.Close()
	})
	per := allocs / users
	t.Logf("%.0f allocations booting %d users (%.3f a user); %d entries adopted, %d of %d record bytes decoded",
		allocs, users, per, bs.IndexAdopted, bs.Decoded, bs.Checksummed)
	if bs.IndexAdopted != users || bs.Decoded != 0 || per >= 0.1 {
		t.Errorf("%.3f allocations a user, %d entries adopted, %d bytes decoded; want under 0.1, all %d and none", per, bs.IndexAdopted, bs.Decoded, users)
	}
}

// TestIndexFramesSplit: an index whose entries would take one frame over
// seglog.MaxFrame — 330,000 users with 16-byte IDs in one segment, about
// 17 MiB of entries — is written as frames that each fit, and reads back
// entry for entry.
func TestIndexFramesSplit(t *testing.T) {
	const users = 330000
	ents := make([]capturedRef, users)
	keys := make([]byte, 0, 16*users)
	for i := range ents {
		keys = fmt.Appendf(keys, "user-%011d", i)
		ents[i] = capturedRef{key: keys[16*i : 16*(i+1)], ref: spillRef{off: int64(9 + 100*i), n: 100, ver: uint64(i + 1), lastSec: int64(i), active: i%3 == 0}}
	}
	size := int64(9 + 100*users)
	data, n := appendIndexFrames(nil, []uint64{7}, []int64{size}, ents, seglog.MaxFrame)
	if n < 2 {
		t.Fatalf("%d frames for %d users", n, users)
	}
	i := 0
	if _, err := seglog.Walk(append([]byte(seglog.Magic), data...), func(payload []byte, _ int64, _ int) error {
		if len(payload) > seglog.MaxFrame {
			t.Fatalf("an index frame of %d bytes", len(payload))
		}
		f, err := parseIndexFrame(payload)
		if err != nil || f.seq != 7 || f.size != size {
			t.Fatalf("frame %+v: %v", f.seq, err)
		}
		for k, off := 0, 0; k < f.nents(); k++ {
			ref, kl := f.entry(k)
			if ref != ents[i].ref || string(f.keys[off:off+kl]) != string(ents[i].key) {
				t.Fatalf("entry %d reads back as %+v %q, was %+v %q", i, ref, f.keys[off:off+kl], ents[i].ref, ents[i].key)
			}
			off, i = off+kl, i+1
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != users {
		t.Fatalf("%d entries read back, %d written", i, users)
	}
	t.Logf("%d users in %d frames, %d bytes", users, n, len(data))
}

// TestRecoverLeavesStraysAlone: files named like segments but not spelled as
// the log names them — a short hex, upper-case hex, one sequence number
// spelled twice — are left alone, and the boot gives the export it gives
// without them. (Recover used to read the name loosely, open the canonical
// spelling, fail the boot on a name with no such file and walk a sequence
// number twice.)
func TestRecoverLeavesStraysAlone(t *testing.T) {
	e, dir, _, _ := indexWorld(t)
	e.Close()
	os.Remove(filepath.Join(dir, checkpointName))
	os.Remove(filepath.Join(dir, checkpointName+BackupSuffix))
	boot := func(dir string) (*Engine, []string) {
		var lines []string
		e := indexWorldEngine(t, dir, WithClock(newTestClock().Now),
			WithLogf(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }))
		return e, lines
	}
	clean, _ := copyBothWays(t, dir)
	want := mustExport(t, func() *Engine { e, _ := boot(clean); return e }())

	strays, _ := copyBothWays(t, dir)
	segs := segFiles(t, strays)
	first, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	fmt.Sscanf(filepath.Base(segs[0]), "seg-%016x.seg", &seq)
	for _, name := range []string{fmt.Sprintf("seg-%x.seg", seq), fmt.Sprintf("seg-%016X.seg", seq+0xa0), "seg-.seg"} {
		if err := os.WriteFile(filepath.Join(strays, name), first, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	e2, lines := boot(strays)
	if got := mustExport(t, e2); !bytes.Equal(got, want) {
		t.Errorf("export with strays in the directory differs:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if n := e2.spill.log.Strays(); n != 3 || !strings.Contains(strings.Join(lines, "\n"), "left alone 3 files") {
		t.Errorf("Strays = %d, log %q; want 3 and a line saying so", n, lines)
	}
}

// FuzzSpillIndexLoad: whatever bytes lie where the checkpoint's index frames
// should, a boot does not panic or fail. It adopts the index only if every
// entry lands on a frame of its segment that names its user, and then brings
// back each user at the record of its entry or, later in the log, beyond the
// bytes the index covers; otherwise it gives the export the whole-log decode
// gives. Each input is tried as the bytes after the header and as one
// checksummed index frame.
func FuzzSpillIndexLoad(f *testing.F) {
	root := f.TempDir()
	dir := filepath.Join(root, "spill")
	clock := newTestClock()
	boot := func(dir string) (*Engine, error) {
		return NewEngine(diffRules()[:1], WithClock(clock.Now), WithShards(2),
			WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 4, SegmentBytes: 600}))
	}
	e, err := boot(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		clock.Advance(time.Second)
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%02d", i%17))); err != nil {
			f.Fatal(err)
		}
	}
	e.Close()
	if err := e.SaveStateFile(filepath.Join(root, "state.json")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		f.Fatal(err)
	}
	st, err := decodeCheckpoint(valid)
	if err != nil {
		f.Fatal(err)
	}
	_, headerEnd, _ := seglog.Wire.NextFrame(valid[len(seglog.Magic):], seglog.MaxFrame)
	headerEnd += len(seglog.Magic)
	oneFrame, err := json.Marshal(checkpointHeader{persistedState: *st, Index: 1})
	if err != nil {
		f.Fatal(err)
	}
	os.Remove(filepath.Join(dir, checkpointName))
	os.Remove(filepath.Join(dir, checkpointName+BackupSuffix))
	plain, err := boot(dir)
	if err != nil {
		f.Fatal(err)
	}
	want, _ := plain.ExportState()
	plain.Close()
	f.Add(valid[headerEnd:])
	f.Add(valid[headerEnd : headerEnd+(len(valid)-headerEnd)/2])
	f.Add([]byte{})
	if frames, err := st.indexFrames(); err == nil && len(frames) > 0 {
		b, _ := appendIndexFrames(nil, []uint64{frames[0].seq}, []int64{frames[0].size}, nil, seglog.MaxFrame)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		asFrame := wire.AppendFrame(wire.AppendFrame([]byte(seglog.Magic), oneFrame), data)
		for _, ckpt := range [][]byte{append(slices.Clone(valid[:headerEnd]), data...), asFrame} {
			work := t.TempDir()
			copyDir(t, dir, work)
			if err := os.WriteFile(filepath.Join(work, checkpointName), ckpt, 0o600); err != nil {
				t.Fatal(err)
			}
			e, err := boot(work)
			if err != nil {
				t.Fatalf("boot with checkpoint %x: %v", ckpt, err)
			}
			got, err := e.ExportState()
			bs := e.BootStatus()
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			if bs.Checkpoint == "" || bs.IndexFallback != "" {
				if !bytes.Equal(got, want) {
					t.Fatalf("export with checkpoint %x not adopted:\n%s", ckpt, got)
				}
				continue
			}
			st, err := decodeCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("adopted a checkpoint that does not read: %v", err)
			}
			frames, err := st.indexFrames()
			if err != nil {
				t.Fatalf("adopted a checkpoint whose index does not read: %v", err)
			}
			back := map[string]uint64{} // user → version, as the rule says
			covered := map[string]int64{}
			for _, fr := range frames {
				name := fmt.Sprintf("seg-%016x.seg", fr.seq)
				covered[name] = fr.size
				file, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					continue // gone: a later record must stand in (below)
				}
				for k, off := 0, 0; k < fr.nents(); k++ {
					ref, n := fr.entry(k)
					payload, got, err := seglog.Wire.NextFrame(file[ref.off:], seglog.MaxFrame)
					if err != nil || got != int(ref.n) {
						t.Fatalf("entry %d lands on no frame (%v)", k, err)
					}
					pp, err := decodeSpillRecord(payload)
					if err != nil || pp.UserID != string(fr.keys[off:off+n]) {
						t.Fatalf("entry %d's frame names another user", k)
					}
					back[pp.UserID] = pp.Version
					off += n
				}
			}
			for _, path := range segFiles(t, dir) {
				data, _ := os.ReadFile(path)
				seglog.Walk(data, func(payload []byte, off int64, _ int) error {
					if pp, err := decodeSpillRecord(payload); err == nil && off >= covered[filepath.Base(path)] {
						back[pp.UserID] = pp.Version
					}
					return nil
				})
			}
			var exported persistedState
			if err := json.Unmarshal(got, &exported); err != nil {
				t.Fatal(err)
			}
			for _, pp := range exported.Profiles {
				if v, ok := back[pp.UserID]; !ok || v != pp.Version {
					t.Fatalf("%s came back at version %d; its entry or later record is at %d (%v)", pp.UserID, pp.Version, v, ok)
				}
				delete(back, pp.UserID)
			}
			if len(back) != 0 {
				t.Fatalf("users with an entry or a later record did not come back: %v", back)
			}
		}
	})
}

// TestImportDeletesSurviveARestart: ImportState and ImportStateRange on a
// capped engine drop a resident user and a spilled one, each with a record in
// the log, and both a crash the moment the import returns and a clean
// restart boot without them. (Before the checkpoint's index was
// authoritative, the boot decoded their records and brought them back.)
func TestImportDeletesSurviveARestart(t *testing.T) {
	for _, whole := range []bool{true, false} {
		for _, clean := range []bool{false, true} {
			t.Run(fmt.Sprintf("whole=%v,clean=%v", whole, clean), func(t *testing.T) {
				clock := newTestClock()
				dir := t.TempDir()
				boot := func() *Engine { return newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100}) }
				e := boot()
				users := make([]string, 12)
				for i := range users {
					users[i] = fmt.Sprintf("u%02d", i)
					if _, err := e.HandleReport(slowS1Report(users[i])); err != nil {
						t.Fatal(err)
					}
				}
				forceSpill(t, e, users...)
				arc := HashRange{}
				if !whole {
					arc = EqualRanges(2)[RangeFor(users[0], EqualRanges(2))]
				}
				var inArc []string
				for _, uid := range users {
					if arc.Contains(userHash(uid)) {
						inArc = append(inArc, uid)
					}
				}
				resident, spilled := inArc[0], inArc[1]
				clock.Advance(time.Second)
				if _, err := e.HandleReport(healthyReport(resident)); err != nil { // resident over its record
					t.Fatal(err)
				}
				data, err := e.ExportSnapshotRange(arc)
				if err != nil {
					t.Fatal(err)
				}
				st, err := decodeState(data)
				if err != nil {
					t.Fatal(err)
				}
				st.Profiles = slices.DeleteFunc(st.Profiles, func(pp persistedProfile) bool { return pp.UserID == resident || pp.UserID == spilled })
				if data, err = json.Marshal(st); err != nil {
					t.Fatal(err)
				}
				if whole {
					err = e.ImportState(data)
				} else {
					err = e.ImportStateRange(arc, data)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := mustExport(t, e)
				e.Close()
				if clean {
					if err := e.SaveStateFile(filepath.Join(t.TempDir(), "state.json")); err != nil {
						t.Fatal(err)
					}
				}
				e = boot()
				for _, uid := range []string{resident, spilled} {
					if r := e.Residency(uid); r != "none" {
						t.Errorf("%s, dropped by the import, came back %s", uid, r)
					}
				}
				if got := mustExport(t, e); !bytes.Equal(got, want) {
					t.Errorf("export after the restart differs from the one after the import:\n--- got\n%s\n--- want\n%s", got, want)
				}
			})
		}
	}
}

// TestImportWhoseCheckpointFails: when the checkpoint a capped import writes
// cannot be installed, the import returns the error and stays installed, and
// a restart boots from the previous checkpoint, rotated to the backup, which
// still holds the dropped user.
func TestImportWhoseCheckpointFails(t *testing.T) {
	clock := newTestClock()
	fs := &testFS{}
	dir := t.TempDir()
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100}, withFS(fs))
	for _, uid := range []string{"kept", "dropped"} {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SaveStateFile(filepath.Join(t.TempDir(), "state.json")); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	st.Profiles = slices.DeleteFunc(st.Profiles, func(pp persistedProfile) bool { return pp.UserID == "dropped" })
	if data, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	fs.setRefuse(func(op, path string) error {
		if op == "rename" && filepath.Base(path) == checkpointName+".tmp" {
			return errors.New("injected rename failure")
		}
		return nil
	})
	if err := e.ImportState(data); err == nil || !strings.Contains(err.Error(), "injected rename failure") {
		t.Fatalf("ImportState = %v, want the checkpoint's failure", err)
	}
	if e.Residency("dropped") != "none" || e.Residency("kept") != "resident" {
		t.Errorf("after the failed checkpoint: dropped %s, kept %s; want the import installed", e.Residency("dropped"), e.Residency("kept"))
	}
	if bak, err := os.ReadFile(filepath.Join(dir, checkpointName+BackupSuffix)); err != nil || !bytes.Equal(bak, before) {
		t.Errorf("the backup is not the previous checkpoint (%v)", err)
	}
	e.Close()
	e = newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if bs := e.BootStatus(); !strings.HasSuffix(bs.Checkpoint, BackupSuffix) || e.Residency("dropped") != "spilled" {
		t.Errorf("boot status %+v, dropped %s; want the backup adopted and the user back", bs, e.Residency("dropped"))
	}
}
