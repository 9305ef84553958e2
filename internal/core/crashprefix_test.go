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
// SaveStateFile calls and a restart between the second and the third — runs
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
// prefix that has a .bak is booted a second time, each way, with its primary
// state file removed: the boot from the backup.
//
// On each directory a fresh engine boots, segment log then state file, and
// must: boot, quarantining nothing; bring back for every user a profile
// byte-equal to one of that user's copies written before k, a record or a
// state file's; and bring back none older than the newest copy durable at k —
// written by an engine call that had returned before k (the engine's own
// claim: a spill and a save return only once fsynced) into a segment, whether
// or not the cleaner has removed it since, or into the state file the boot
// reads or one installed before it.
//
// The hazard a resident user's ref exists for must be in the trace: a user
// rehydrated after a save that does not hold them, whose record's segment the
// cleaner removes before the next save while no newer record of the user is
// written. The record the rehydration read must survive it: every prefix from
// that removal to the next save brings the user back at its version or later.
//
// Imports are kept out of the workload: an authoritative import's deletes are
// not durable (ROADMAP item 1, seed (iii)).
func TestCrashPrefixes(t *testing.T) {
	root := t.TempDir()
	cfg := ResidencyConfig{Dir: filepath.Join(root, "spill"), MaxProfiles: 8, SegmentBytes: 1536}
	state := filepath.Join(root, "state.json")
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
		if _, err := e.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 60, 150, 175:
			if err := e.SaveStateFile(state); err != nil {
				t.Fatal(err)
			}
		case 110:
			compactions += e.Metrics().SegmentCompactions
			e.Close()
			if err := e.SaveStateFile(state); err != nil {
				t.Fatal(err)
			}
			e = boot(root, withFS(fs))
		}
		fs.ack()
	}
	compactions += e.Metrics().SegmentCompactions
	e.Close()
	if compactions == 0 {
		t.Fatal("the workload never compacted a segment")
	}

	copies := persistedCopies(t, fs.trace)
	hazards := copies.hazards(fs.trace, rehydrated, state)
	if len(hazards) == 0 {
		t.Fatal("no user was rehydrated after a save that lacked them and had the segment of the record read compacted before the next save")
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
				if lostPrimary && replay.files[state+BackupSuffix] == 0 {
					continue
				}
				at := fmt.Sprintf("prefix %d/%d (torn %v, primary lost %v)", k, len(fs.trace), torn, lostPrimary)
				dir := filepath.Join(work, fmt.Sprint(torn))
				replay.build(t, root, dir, torn)
				if lostPrimary {
					os.Remove(filepath.Join(dir, "state.json"))
				}
				e := boot(dir)
				if e.BootStatus().IndexFallback == "" {
					indexed++
				}
				back := checkCrashBoot(t, at, e, copies, k, replay.durable(copies, state, lostPrimary))
				for _, h := range hazards {
					if k > h.gone && k <= h.next && back[h.uid] < h.version {
						t.Fatalf("%s: %s came back at version %d, but a report read its version %d record, whose segment the cleaner removed at op %d",
							at, h.uid, back[h.uid], h.version, h.gone)
					}
				}
				boots++
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no boot adopted a spill index")
	}
	t.Logf("%d prefixes of a %d-operation trace, %d boots (each prefix whole and torn, and from the .bak where there is one; %d on a spill index); %d compactions in the run; %d hazard cases",
		len(fs.trace)+1, len(fs.trace), boots, indexed, compactions, len(hazards))
}

// checkCrashBoot holds one boot to TestCrashPrefixes' invariants, and returns
// the version each user came back at.
func checkCrashBoot(t *testing.T, at string, e *Engine, copies *persisted, k int, durable map[string]uint64) map[string]uint64 {
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

// persisted is every copy of a profile the trace wrote: the segment records
// and the state files' profiles.
type persisted struct {
	all   []persistedCopy
	first map[string]int // user NUL JSON → index of the first write holding it
}

type persistedCopy struct {
	user    string
	version uint64
	op      int // the write's index in the trace
	file    int
	state   bool // written into a state file, not a segment
}

func persistedCopies(t *testing.T, trace []fsOp) *persisted {
	t.Helper()
	c := &persisted{first: map[string]int{}}
	add := func(i int, op fsOp, pp *persistedProfile, state bool) {
		b, _ := json.Marshal(pp)
		if _, ok := c.first[pp.UserID+"\x00"+string(b)]; !ok {
			c.first[pp.UserID+"\x00"+string(b)] = i
		}
		c.all = append(c.all, persistedCopy{user: pp.UserID, version: pp.Version, op: i, file: op.file, state: state})
	}
	pathOf := map[int]string{}
	for i, op := range trace {
		switch op.kind {
		case "create":
			pathOf[op.file] = op.path
		case "write":
			switch name := filepath.Base(pathOf[op.file]); {
			case name == spillIndexName+".tmp":
				// The spill index holds refs to records, no profile.
			case strings.HasSuffix(name, ".tmp"):
				st := readCheckpoint(t, op.data)
				for j := range st.Profiles {
					add(i, op, &st.Profiles[j], true)
				}
			case strings.HasPrefix(name, "seg-") && string(op.data) != seglog.Magic:
				if _, err := seglog.Walk(append([]byte(seglog.Magic), op.data...), func(payload []byte, _ int64, _ int) error {
					pp, err := decodeSpillRecord(payload)
					if err == nil {
						add(i, op, pp, false)
					}
					return err
				}); err != nil {
					t.Fatalf("trace op %d: segment append: %v", i, err)
				}
			}
		}
	}
	return c
}

// hazard is a rehydration a crash would lose if the user's ref went with it:
// the last save before it does not hold the user, and the segment holding the
// record it read, at version, is removed at trace index gone, before the next
// save's install at next, with no newer record of the user written in between.
type hazard struct {
	uid        string
	version    uint64
	gone, next int
}

// hazards lists the trace's hazard cases.
func (c *persisted) hazards(trace []fsOp, rehydrated []rehydration, state string) []hazard {
	type install struct{ at, file int } // a rename onto the state file
	var installs []install
	removed := map[int]int{} // file id → trace index of its removal
	fileAt := map[string]int{}
	for i, op := range trace {
		switch op.kind {
		case "create":
			fileAt[op.path] = op.file
		case "rename":
			if op.to == state {
				installs = append(installs, install{i, fileAt[op.path]})
			}
			fileAt[op.to] = fileAt[op.path]
		case "remove":
			removed[fileAt[op.path]] = i
		}
	}
	var out []hazard
	for _, h := range rehydrated {
		prev, next := install{at: -1}, len(trace)
		for _, in := range installs {
			if in.at < h.at {
				prev = in
			} else if next == len(trace) {
				next = in.at
			}
		}
		if prev.at < 0 {
			continue
		}
		saved, read := false, persistedCopy{op: -1}
		for _, cp := range c.all {
			switch {
			case cp.user != h.uid:
			case cp.state && cp.file == prev.file:
				saved = true
			case !cp.state && cp.op < h.at && cp.op > read.op:
				read = cp
			}
		}
		gone, ok := removed[read.file]
		if saved || read.op < 0 || !ok || gone < h.at || gone > next {
			continue
		}
		newer := slices.ContainsFunc(c.all, func(cp persistedCopy) bool {
			return cp.user == h.uid && !cp.state && cp.op > h.at && cp.op < gone && cp.version > read.version
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

// durable is, per user, the newest version durable at this prefix for a boot
// that reads the state file — or, with the primary lost or missing, its
// backup: every acknowledged segment record, removed since or not, and every
// acknowledged copy in that state file or one installed before it (file ids
// grow with creation).
func (r *replay) durable(c *persisted, state string, lostPrimary bool) map[string]uint64 {
	booted := r.files[state]
	if lostPrimary || booted == 0 {
		booted = r.files[state+BackupSuffix]
	}
	out := map[string]uint64{}
	for _, cp := range c.all {
		if cp.op < r.lastAck && (!cp.state || cp.file <= booted) && cp.version > out[cp.user] {
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
