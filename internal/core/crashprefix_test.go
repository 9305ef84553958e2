package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
)

// TestCrashPrefixes enumerates crash points against the file seam, after
// Pillai et al.'s ALICE (OSDI '14). A seeded workload — 40 users behind a
// resident cap of 8, segments small enough to rotate and compact, four
// SaveStateFile calls, a restart between the second and the third, and three
// authoritative imports that each drop a resident and a spilled user — runs
// over a recording testFS. Every prefix k of its trace of mutating file
// operations is rebuilt in a fresh directory two ways:
//
//	(a) every operation before k applied as written;
//	(b) the writes not followed by their file's fsync before k dropped, and
//	    the last of them torn in half.
//
// Directory operations (mkdir, create, rename, remove) are applied in order in
// both: the test assumes a file system that keeps metadata operations in
// order, as ext4 does, and loses or tears only data that was not fsynced. A
// prefix whose spill directory has a checkpoint backup is booted a second
// time, each way, with the checkpoint removed: the boot from the backup.
//
// On each directory a fresh engine boots and must: boot, quarantining
// nothing; bring back for every user a profile byte-equal to one of that
// user's records written before k; and bring back none older than the newest
// record durable at k — written by an engine call that had returned before k
// (the engine's own claim: a spill, a save and an import return only once
// fsynced), whether or not the cleaner has removed it since. A user an
// import dropped does not come back once that import has returned, if the
// checkpoint the boot reads is the import's or a later one. (While an import
// runs, the users of its arc are whatever it has made of them so far, and a
// boot from a backup older than an import's checkpoint may bring back what
// it dropped: those users are held to the first rule only.)
//
// The hazard a resident user's ref exists for must be in the trace: a user
// rehydrated after a save, whose record's segment the cleaner removes before
// the next save while no newer record of the user is written. The record the
// rehydration read must survive it: every prefix from that removal to the
// next save brings the user back at its version or later.
func TestCrashPrefixes(t *testing.T) {
	root := t.TempDir()
	cfg := ResidencyConfig{Dir: filepath.Join(root, "spill"), MaxProfiles: 8, SegmentBytes: 1536}
	ckpt := filepath.Join(cfg.Dir, checkpointName)
	fs := &testFS{}
	fs.record()
	clock := newTestClock()
	boot := func(dir string, opts ...Option) *Engine {
		t.Helper()
		c := cfg
		c.Dir = filepath.Join(dir, "spill")
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, append([]Option{WithClock(clock.Now), WithShards(2), WithProfileResidency(c)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadStateFile(filepath.Join(dir, "state.json")); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := boot(root, withFS(fs))
	fs.ack()
	compactions := uint64(0)
	var rehydrated []rehydration
	var imports []crashImport
	gone := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		clock.Advance(time.Duration(1+rng.Intn(20)) * time.Second)
		uid := fmt.Sprintf("u%02d", rng.Intn(40))
		r := healthyReport(uid)
		if rng.Intn(2) == 0 {
			r = slowS1Report(uid)
		}
		if e.Residency(uid) == "spilled" {
			rehydrated = append(rehydrated, rehydration{uid, len(fs.trace)})
		}
		if !gone[uid] {
			if _, err := e.HandleReport(r); err != nil {
				t.Fatal(err)
			}
		}
		switch i {
		case 60, 150, 175:
			if err := e.SaveStateFile(filepath.Join(root, "state.json")); err != nil {
				t.Fatal(err)
			}
		case 110:
			compactions += e.Metrics().SegmentCompactions
			e.Close()
			if err := e.SaveStateFile(filepath.Join(root, "state.json")); err != nil {
				t.Fatal(err)
			}
			e = boot(root, withFS(fs))
		case 90, 130, 185:
			arc := map[int]HashRange{90: EqualRanges(2)[0], 130: {}, 185: EqualRanges(2)[1]}[i]
			imp := dropTwo(t, e, arc, fs, ckpt)
			imports = append(imports, imp)
			for _, uid := range imp.dropped {
				gone[uid] = true
			}
		}
		fs.ack()
	}
	compactions += e.Metrics().SegmentCompactions
	e.Close()
	if compactions == 0 {
		t.Fatal("the workload never compacted a segment")
	}

	copies := persistedCopies(t, fs.trace)
	hazards := copies.hazards(fs.trace, rehydrated, ckpt)
	if len(hazards) == 0 {
		t.Fatal("no user was rehydrated after a save and had the segment of the record read compacted before the next save")
	}
	replay := newReplay()
	work := t.TempDir()
	boots, indexed := 0, 0
	for k := 0; k <= len(fs.trace); k++ {
		if k > 0 {
			replay.apply(k-1, fs.trace[k-1])
		}
		for _, torn := range []bool{false, true} {
			for _, lostPrimary := range []bool{false, true} {
				if lostPrimary && replay.files[ckpt+BackupSuffix] == 0 {
					continue
				}
				at := fmt.Sprintf("prefix %d/%d (torn %v, checkpoint lost %v)", k, len(fs.trace), torn, lostPrimary)
				dir := filepath.Join(work, fmt.Sprint(torn))
				replay.build(t, root, dir, torn)
				if lostPrimary {
					os.Remove(filepath.Join(dir, "spill", checkpointName))
				}
				booted := replay.files[ckpt]
				if lostPrimary || booted == 0 {
					booted = replay.files[ckpt+BackupSuffix]
				}
				dropped, loose := map[string]bool{}, map[string]bool{}
				for _, imp := range imports {
					switch {
					case imp.start >= k:
					case imp.ack < k && imp.ckpt <= booted:
						for _, uid := range imp.dropped {
							dropped[uid] = true
						}
					default:
						for _, uid := range imp.dropped {
							loose[uid] = true
						}
					}
				}
				e := boot(dir)
				if e.BootStatus().IndexFallback == "" {
					indexed++
				}
				back := checkCrashBoot(t, at, e, copies, k, replay.durable(copies, dropped, loose), dropped)
				for _, h := range hazards {
					if k > h.gone && k <= h.next && back[h.uid] < h.version && !loose[h.uid] {
						t.Fatalf("%s: %s came back at version %d, but a report read its version %d record, whose segment the cleaner removed at op %d",
							at, h.uid, back[h.uid], h.version, h.gone)
					}
				}
				boots++
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no boot adopted a checkpoint's index")
	}
	t.Logf("%d prefixes of a %d-operation trace, %d boots (each prefix whole and torn, and from the backup where there is one; %d on a checkpoint's index); %d compactions in the run; %d hazard cases; %d imports",
		len(fs.trace)+1, len(fs.trace), boots, indexed, compactions, len(hazards), len(imports))
}

// crashImport is an authoritative import of TestCrashPrefixes' workload: the
// trace indexes it started at and was acknowledged at, the file id of the
// checkpoint it installed, its arc and the users it dropped.
type crashImport struct {
	start, ack, ckpt int
	arc              HashRange
	dropped          []string
}

// dropTwo imports the engine's own export of arc back into it without one
// resident and one spilled user of the arc, and says what it did.
func dropTwo(t *testing.T, e *Engine, arc HashRange, fs *testFS, ckpt string) crashImport {
	t.Helper()
	data, err := e.ExportSnapshotRange(arc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	imp := crashImport{start: len(fs.trace), arc: arc}
	for _, where := range []string{"resident", "spilled"} {
		if i := slices.IndexFunc(st.Profiles, func(pp persistedProfile) bool { return e.Residency(pp.UserID) == where }); i >= 0 {
			imp.dropped = append(imp.dropped, st.Profiles[i].UserID)
			st.Profiles = slices.Delete(st.Profiles, i, i+1)
		}
	}
	if len(imp.dropped) != 2 {
		t.Fatalf("arc %v has no resident and spilled user to drop: %v", arc, imp.dropped)
	}
	if data, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if arc.Whole() {
		err = e.ImportState(data)
	} else {
		err = e.ImportStateRange(arc, data)
	}
	if err != nil {
		t.Fatal(err)
	}
	imp.ack = len(fs.trace)
	for i := imp.start; i < imp.ack; i++ {
		if op := fs.trace[i]; op.kind == "rename" && op.to == ckpt {
			imp.ckpt = fs.files[ckpt]
		}
	}
	if imp.ckpt == 0 {
		t.Fatal("the import installed no checkpoint")
	}
	return imp
}

// checkCrashBoot holds one boot to TestCrashPrefixes' invariants, and returns
// the version each user came back at.
func checkCrashBoot(t *testing.T, at string, e *Engine, copies *persisted, k int, durable map[string]uint64, dropped map[string]bool) map[string]uint64 {
	t.Helper()
	st, _ := e.SpillStatus()
	if len(st.QuarantinedSegments) != 0 {
		t.Fatalf("%s: quarantined %v", at, st.QuarantinedSegments)
	}
	data, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	var got persistedState
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	back := map[string]uint64{}
	for _, pp := range got.Profiles {
		back[pp.UserID] = pp.Version
		b, _ := json.Marshal(pp)
		if first, ok := copies.first[pp.UserID+"\x00"+string(b)]; !ok || first >= k {
			t.Fatalf("%s: %s came back as %s, no copy of it written before the crash", at, pp.UserID, b)
		}
		if dropped[pp.UserID] {
			t.Fatalf("%s: %s came back, an acknowledged import dropped it", at, pp.UserID)
		}
		if pp.Version < durable[pp.UserID] {
			t.Fatalf("%s: %s came back at version %d, version %d was durable", at, pp.UserID, pp.Version, durable[pp.UserID])
		}
	}
	for uid, v := range durable {
		if _, ok := back[uid]; !ok {
			t.Fatalf("%s: %s lost, version %d was durable", at, uid, v)
		}
	}
	return back
}

// rehydration is a report for a spilled user: at is the length of the trace
// when it began.
type rehydration struct {
	uid string
	at  int
}

// persisted is every copy of a profile the trace wrote: the segment records.
type persisted struct {
	all   []persistedCopy
	first map[string]int // user NUL JSON → index of the first write holding it
}

type persistedCopy struct {
	user    string
	version uint64
	op      int // the write's index in the trace
	file    int
}

func persistedCopies(t *testing.T, trace []fsOp) *persisted {
	t.Helper()
	c := &persisted{first: map[string]int{}}
	pathOf := map[int]string{}
	for i, op := range trace {
		switch op.kind {
		case "create":
			pathOf[op.file] = op.path
		case "write":
			if name := filepath.Base(pathOf[op.file]); !strings.HasPrefix(name, "seg-") || string(op.data) == seglog.Magic {
				continue // the checkpoint holds refs to records, no profile
			}
			if _, err := seglog.Walk(append([]byte(seglog.Magic), op.data...), func(payload []byte, _ int64, _ int) error {
				pp, err := decodeSpillRecord(payload)
				if err != nil {
					return err
				}
				b, _ := json.Marshal(pp)
				if _, ok := c.first[pp.UserID+"\x00"+string(b)]; !ok {
					c.first[pp.UserID+"\x00"+string(b)] = i
				}
				c.all = append(c.all, persistedCopy{user: pp.UserID, version: pp.Version, op: i, file: op.file})
				return nil
			}); err != nil {
				t.Fatalf("trace op %d: segment append: %v", i, err)
			}
		}
	}
	return c
}

// users lists every user a record names.
func (c *persisted) users() []string {
	var out []string
	for _, cp := range c.all {
		if !slices.Contains(out, cp.user) {
			out = append(out, cp.user)
		}
	}
	return out
}

// hazard is a rehydration a crash would lose if the user's ref went with it:
// the segment holding the record it read, at version, is removed at trace
// index gone, before the next checkpoint's install at next, with no newer
// record of the user written in between.
type hazard struct {
	uid        string
	version    uint64
	gone, next int
}

// hazards lists the trace's hazard cases.
func (c *persisted) hazards(trace []fsOp, rehydrated []rehydration, ckpt string) []hazard {
	var installs []int       // renames onto the checkpoint
	removed := map[int]int{} // file id → trace index of its removal
	fileAt := map[string]int{}
	for i, op := range trace {
		switch op.kind {
		case "create":
			fileAt[op.path] = op.file
		case "rename":
			if op.to == ckpt {
				installs = append(installs, i)
			}
			fileAt[op.to] = fileAt[op.path]
		case "remove":
			removed[fileAt[op.path]] = i
		}
	}
	var out []hazard
	for _, h := range rehydrated {
		next := len(trace)
		if i := slices.IndexFunc(installs, func(at int) bool { return at > h.at }); i >= 0 {
			next = installs[i]
		}
		read := persistedCopy{op: -1}
		for _, cp := range c.all {
			if cp.user == h.uid && cp.op < h.at && cp.op > read.op {
				read = cp
			}
		}
		gone, ok := removed[read.file]
		if read.op < 0 || !ok || gone < h.at || gone > next {
			continue
		}
		newer := slices.ContainsFunc(c.all, func(cp persistedCopy) bool {
			return cp.user == h.uid && cp.op > h.at && cp.op < gone && cp.version > read.version
		})
		if !newer {
			out = append(out, hazard{h.uid, read.version, gone, next})
		}
	}
	return out
}

// replay is the directory as a prefix of the trace left it.
type replay struct {
	dirs     []string
	files    map[string]int // path → file id
	cur      map[int][]byte // every write applied
	synced   map[int][]byte // as of the file's last fsync
	unsynced []fsOp         // writes and truncates since their file's fsync
	lastAck  int            // index of the last ack applied
}

func newReplay() *replay {
	return &replay{files: map[string]int{}, cur: map[int][]byte{}, synced: map[int][]byte{}, lastAck: -1}
}

// writeAt returns b with data written at off, zero-filled up to it.
func writeAt(b []byte, off int64, data []byte) []byte {
	if n := off + int64(len(data)); n > int64(len(b)) {
		b = append(b, make([]byte, n-int64(len(b)))...)
	}
	copy(b[off:], data)
	return b
}

func (r *replay) apply(i int, op fsOp) {
	switch op.kind {
	case "mkdir":
		r.dirs = append(r.dirs, op.path)
	case "create":
		r.files[op.path] = op.file
		r.cur[op.file], r.synced[op.file] = nil, nil
	case "write":
		r.cur[op.file] = writeAt(r.cur[op.file], op.off, op.data)
		r.unsynced = append(r.unsynced, op)
	case "truncate":
		r.cur[op.file] = writeAt(r.cur[op.file], op.off, nil)[:op.off]
		r.unsynced = append(r.unsynced, op)
	case "sync":
		r.synced[op.file] = slices.Clone(r.cur[op.file])
		r.unsynced = slices.DeleteFunc(r.unsynced, func(w fsOp) bool { return w.file == op.file })
	case "rename":
		r.files[op.to] = r.files[op.path]
		delete(r.files, op.path)
	case "remove":
		delete(r.files, op.path)
	case "ack":
		r.lastAck = i
	}
}

// durable is, per user, the newest version of an acknowledged record — removed
// since or not — leaving out the users an import dropped and those no rule
// but the first holds (loose).
func (r *replay) durable(c *persisted, dropped, loose map[string]bool) map[string]uint64 {
	out := map[string]uint64{}
	for _, cp := range c.all {
		if cp.op < r.lastAck && !dropped[cp.user] && !loose[cp.user] && cp.version > out[cp.user] {
			out[cp.user] = cp.version
		}
	}
	return out
}

// build writes the prefix's directory tree, from root, into dir: whole, or
// with what was not fsynced dropped and the last such write torn.
func (r *replay) build(t *testing.T, root, dir string, torn bool) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	rebase := func(p string) string { return filepath.Join(dir, strings.TrimPrefix(p, root)) }
	for _, d := range append([]string{root}, r.dirs...) {
		if err := os.MkdirAll(rebase(d), 0o700); err != nil {
			t.Fatal(err)
		}
	}
	var tear *fsOp
	if n := len(r.unsynced); torn && n > 0 && r.unsynced[n-1].kind == "write" {
		tear = &r.unsynced[n-1]
	}
	for path, id := range r.files {
		data := r.cur[id]
		if torn {
			data = r.synced[id]
			if tear != nil && tear.file == id {
				data = writeAt(slices.Clone(data), tear.off, tear.data[:len(tear.data)/2])
			}
		}
		if err := os.WriteFile(rebase(path), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}
