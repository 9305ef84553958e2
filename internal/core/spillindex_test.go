package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"oak/internal/seglog"
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
			if kgot, kok := x.getKey([]byte(uid)); kok != ok || kgot != got {
				t.Fatalf("op %d: getKey(%s) disagrees with get", i, uid)
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
		uid := uids[i%len(uids)]
		i++
		ref, _ := x.get(uid)
		x.getKey(keys[i%len(keys)])
		x.del(uid)
		x.put(uid, ref)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per get, getKey, del and put, want 0", allocs)
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
// directories, the second without the spill index.
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
	if err := os.Remove(filepath.Join(without, spillIndexName)); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return with, without
}

// bootsAgree boots boot on two copies of the spill directory dir — one with
// the spill index, one without — and requires the two engines to be one:
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
// checkpoint just saved: state file and spill index.
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

// TestSpillIndexFallback: an index that does not fit the directory is not
// used, and the boot decodes the whole log — one row per way it can fail to
// fit — to the export and status the boot without any index gives. The first
// row is a fit: the boot adopts every entry and decodes no record.
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
	index := func(dir string) string { return filepath.Join(dir, spillIndexName) }
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
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, e *Engine, dir string) // e is still running
		why    string                                    // in IndexFallback; "" for a fit
	}{
		{name: "fits", damage: func(*testing.T, *Engine, string) {}},
		{name: "missing", why: "no index", damage: func(t *testing.T, _ *Engine, dir string) {
			os.Remove(index(dir))
		}},
		{name: "empty", why: "torn", damage: func(t *testing.T, _ *Engine, dir string) {
			rewrite(t, index(dir), func([]byte) []byte { return nil })
		}},
		{name: "torn", why: "checksum mismatch", damage: func(t *testing.T, _ *Engine, dir string) {
			rewrite(t, index(dir), func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{name: "one flipped byte", why: "checksum mismatch", damage: func(t *testing.T, _ *Engine, dir string) {
			rewrite(t, index(dir), func(b []byte) []byte { b[len(b)/2] ^= 1; return b })
		}},
		{name: "wrong magic", why: "magic", damage: func(t *testing.T, _ *Engine, dir string) {
			rewrite(t, index(dir), func(b []byte) []byte { b[0] = 'X'; return b })
		}},
		{name: "a covered segment compacted away after the checkpoint", why: "is gone", damage: func(t *testing.T, e *Engine, _ string) {
			e.compactSegment(sealed(t, e))
		}},
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
			case tc.why != "" && (bs.IndexAdopted != 0 || !strings.Contains(bs.IndexFallback, tc.why) || bs.Decoded != bs.Checksummed):
				t.Errorf("boot status %+v, want no entry adopted, every record decoded and a fallback naming %q", bs, tc.why)
			}
			if tc.why == "quarantined" {
				if bs.QuarantinedSegments != 1 || !strings.Contains(strings.Join(lines, "\n"), "users its readable frames name have no other record") {
					t.Errorf("the punched segment was not quarantined at boot with its lost users counted: %+v\n%s", bs, strings.Join(lines, "\n"))
				}
			}
			t.Logf("%s: %d entries adopted, %d bytes checksummed, %d decoded; fallback %q",
				tc.name, bs.IndexAdopted, bs.Checksummed, bs.Decoded, bs.IndexFallback)
		})
	}
}

// TestIndexedBootDecodesRecordsWithoutAnEntry: a record the index has no
// entry for, though no later record outdates it, is decoded and replayed as
// the whole-log decode would — the refs an authoritative import dropped, of a
// user resident over theirs and of one spilled (which the replay brings back:
// ROADMAP item 2, seed (iii)).
func TestIndexedBootDecodesRecordsWithoutAnEntry(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "state.json")
	boot := func(dir string) *Engine {
		return newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	}
	e := boot(dir)
	for _, uid := range []string{"rehydrated", "dropped", "kept"} {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	forceSpill(t, e, "rehydrated", "dropped", "kept")
	clock.Advance(time.Second)
	if _, err := e.HandleReport(healthyReport("rehydrated")); err != nil { // resident over its ref
		t.Fatal(err)
	}
	saveTwice(t, e, state)
	payload, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st persistedState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	st.Profiles = slices.DeleteFunc(st.Profiles, func(pp persistedProfile) bool { return pp.UserID == "dropped" })
	if payload, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := e.ImportState(payload); err != nil { // drops every ref, not the records
		t.Fatal(err)
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	e.Close()
	bs := bootsAgree(t, "records without an entry", dir, []string{"rehydrated", "dropped", "kept"}, func(dir string) *Engine {
		e := boot(dir)
		if _, err := e.LoadStateFile(state); err != nil {
			t.Fatal(err)
		}
		return e
	})
	if bs.IndexFallback != "" || bs.Decoded == 0 {
		t.Errorf("boot status %+v, want the index adopted and the two records without an entry decoded", bs)
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
	if spilled := users - bootedWorldResident; bs.IndexAdopted != spilled || per >= 0.1 {
		t.Errorf("%.3f allocations a user, %d entries adopted; want under 0.1 and all %d", per, bs.IndexAdopted, spilled)
	}
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
	os.Remove(filepath.Join(dir, spillIndexName))
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

// FuzzSpillIndexLoad: whatever bytes lie where the index should, a boot does
// not panic or fail, gives the export a boot without an index gives, and
// adopts the index only if every entry lands on a frame of its segment that
// names its user. Each input is tried as it is and with a correct checksum.
func FuzzSpillIndexLoad(f *testing.F) {
	root := f.TempDir()
	dir := filepath.Join(root, "spill")
	clock := newTestClock()
	e, err := NewEngine(diffRules()[:1], WithClock(clock.Now), WithShards(2),
		WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 4, SegmentBytes: 600}))
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
	valid, err := os.ReadFile(filepath.Join(dir, spillIndexName))
	if err != nil {
		f.Fatal(err)
	}
	os.Remove(filepath.Join(dir, spillIndexName))
	boot := func(dir string) (*Engine, error) {
		return NewEngine(diffRules()[:1], WithClock(clock.Now), WithShards(2),
			WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 4, SegmentBytes: 600}))
	}
	plain, err := boot(dir)
	if err != nil {
		f.Fatal(err)
	}
	want, _ := plain.ExportState()
	plain.Close()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(spillIndexMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		fixed := bytes.Clone(data)
		if n := len(fixed) - crc32.Size; n >= 0 {
			binary.LittleEndian.PutUint32(fixed[n:], crc32.Checksum(fixed[:n], snapshotCRC))
		}
		for _, idx := range [][]byte{data, fixed} {
			work := t.TempDir()
			copyDir(t, dir, work)
			if err := os.WriteFile(filepath.Join(work, spillIndexName), idx, 0o600); err != nil {
				t.Fatal(err)
			}
			e, err := boot(work)
			if err != nil {
				t.Fatalf("boot with index %x: %v", idx, err)
			}
			got, err := e.ExportState()
			bs := e.BootStatus()
			e.Close()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("export with index %x: %v\n%s", idx, err, got)
			}
			if bs.IndexAdopted == 0 {
				continue
			}
			x, err := parseSpillIndex(idx)
			if err != nil {
				t.Fatalf("adopted an index that does not parse: %v", err)
			}
			for i, off := 0, 0; i < x.nents(); i++ {
				seg, ref, n := x.entry(i)
				seq, _ := x.seg(seg)
				file, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%016x.seg", seq)))
				if err != nil {
					t.Fatalf("entry %d names a segment that is not there: %v", i, err)
				}
				payload, got, err := seglog.Wire.NextFrame(file[ref.off:], seglog.MaxFrame)
				if err != nil || got != int(ref.n) {
					t.Fatalf("entry %d lands on no frame (%v)", i, err)
				}
				if pp, err := decodeSpillRecord(payload); err != nil || pp.UserID != string(x.keys[off:off+n]) {
					t.Fatalf("entry %d's frame names another user", i)
				}
				off += n
			}
		}
	})
}
