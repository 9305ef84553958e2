// Package seglog is an append-only log of checksummed frames kept in numbered
// segment files, over the FS seam. It knows nothing of what a frame holds:
// its owner (internal/core's spill tier) encodes the records, keeps the index
// of which frames are live, marks the dead ones and decides what to compact.
//
// A segment file is the magic line followed by frames back to back, each
// uvarint(len(payload)) | payload | crc32c(payload) LE (internal/wire):
//
//	OAKPROF1\n
//	frame frame frame ...
//
// Append writes and fsyncs before it returns, so after a crash a segment's
// tail is at worst torn, and Recover cuts it back to the last whole frame.
// Any other damage takes the whole segment out of service (Quarantine).
package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"oak/internal/obs"
	"oak/internal/wire"
)

// Magic is the first line of every segment file.
const Magic = "OAKPROF1\n"

// MaxFrame bounds a frame's payload, so a damaged length prefix cannot demand
// a huge allocation.
const MaxFrame = 1 << 24

// Segment files are named seg-%016x.seg; a quarantined one gains a suffix.
const (
	segPrefix        = "seg-"
	segSuffix        = ".seg"
	quarantineSuffix = ".quarantined"
)

// The damage taxonomy. ErrTruncated means the bytes end inside a frame — at
// the tail of a segment that is a torn append; anywhere else it is damage. A
// record codec over the log reads its fields with Wire, so the record's
// damage is the log's.
var (
	ErrMagic     = errors.New("seglog: segment magic mismatch")
	ErrTruncated = errors.New("seglog: record truncated")
	ErrOversized = errors.New("seglog: record oversized")
	ErrCorrupt   = errors.New("seglog: record corrupt")

	Wire = wire.Errors{Truncated: ErrTruncated, Oversized: ErrOversized, Corrupt: ErrCorrupt}
)

// IsDamage reports whether err says a segment's bytes are wrong, as opposed
// to an I/O failure of the disk's plumbing.
func IsDamage(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrOversized) || errors.Is(err, ErrMagic)
}

// Segment is one segment file. Its owner counts the frames written to it and
// the frames it no longer refers to (Total, Dead), and marks it Active while
// it is a writer's append target; a segment no longer active is sealed and
// only read, compacted or removed.
type Segment struct {
	Seq         uint64
	Total, Dead atomic.Int64
	Active      atomic.Bool

	path        string
	f           File
	size        atomic.Int64 // file length: magic and frames
	quarantined atomic.Bool
}

// Name is the segment's file name.
func (s *Segment) Name() string { return filepath.Base(s.path) }

// Size is the segment's length in bytes, magic included.
func (s *Segment) Size() int64 { return s.size.Load() }

// Quarantined reports whether the segment's bytes failed validation.
func (s *Segment) Quarantined() bool { return s.quarantined.Load() }

// Log is one directory of segments: the table of those in service, the
// sequence allocator and the byte gauge.
type Log struct {
	fs           FS
	dir          string
	onQuarantine func(name string, err error)
	// Bytes is the size of the segments in service, dead frames included.
	Bytes obs.Gauge

	mu          sync.Mutex
	segs        map[uint64]*Segment
	nextSeq     uint64
	quarantined []string // file names, in discovery order
	strays      int      // set by Recover
}

// Open makes dir, if absent, the home of a log; Recover reads what is there.
// onQuarantine hears of every segment taken out of service, once.
func Open(fsys FS, dir string, onQuarantine func(name string, err error)) (*Log, error) {
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	return &Log{fs: fsys, dir: dir, onQuarantine: onQuarantine, segs: make(map[uint64]*Segment)}, nil
}

// Recover puts the directory's segments in service, oldest first, in two
// steps. It opens every segment and shows them to plan, in sequence order,
// each one's Size its file's length. Then it reads each whole and calls walk
// with the bytes (magic included, for Walk to check) to parse, spreading the
// segments over up to GOMAXPROCS workers: walk runs concurrently with itself,
// and data is a worker's buffer, good until walk returns. walk returns where
// the last whole frame ends: with ErrTruncated the segment is cut back to
// there and kept, with another error it is quarantined — and its caller must
// commit nothing of it. A file too short for the magic is a crash between
// create and header write, and is removed. A file named like a segment but not
// in the spelling Create gives it is left alone and counted (Strays).
func (l *Log) Recover(plan func(segs []*Segment) error, walk func(seg *Segment, data []byte) (end int64, err error)) error {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("read spill directory: %w", err)
	}
	var seqs []uint64
	for _, ent := range ents {
		if name := ent.Name(); strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			seq, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
			if err != nil || filepath.Join(l.dir, name) != l.path(seq) {
				l.strays++
				continue
			}
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	segs := make([]*Segment, 0, len(seqs))
	closeAll := func() {
		for _, seg := range segs {
			seg.f.Close()
		}
	}
	for _, seq := range seqs {
		l.nextSeq = max(l.nextSeq, seq+1)
		seg := &Segment{Seq: seq, path: l.path(seq)}
		// One open per segment: the handle kept is the one the replay reads.
		f, err := l.fs.OpenFile(seg.path, os.O_RDWR, 0)
		if err != nil {
			closeAll()
			return fmt.Errorf("open spill segment %s: %w", seg.path, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			closeAll()
			return fmt.Errorf("stat spill segment %s: %w", seg.path, err)
		}
		if fi.Size() < int64(len(Magic)) {
			f.Close()
			l.fs.Remove(seg.path)
			continue
		}
		seg.f = f
		seg.size.Store(fi.Size())
		segs = append(segs, seg)
	}
	if err := plan(segs); err != nil {
		closeAll()
		return err
	}
	type outcome struct {
		end       int64
		err, read error
	}
	out := make([]outcome, len(segs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(segs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := int(next.Add(1) - 1); i < len(segs); i = int(next.Add(1) - 1) {
				seg := segs[i]
				if n := int(seg.Size()); cap(buf) < n {
					buf = make([]byte, n)
				}
				data := buf[:seg.Size()]
				if _, err := seg.f.ReadAt(data, 0); err != nil {
					out[i].read = err
					continue
				}
				out[i].end, out[i].err = walk(seg, data)
			}
		}()
	}
	wg.Wait()
	for i, seg := range segs {
		if err := out[i].read; err != nil {
			closeAll()
			return fmt.Errorf("read spill segment %s: %w", seg.path, err)
		}
	}
	for i, seg := range segs {
		l.segs[seg.Seq] = seg
		l.Bytes.Add(seg.Size())
		switch o := out[i]; {
		case errors.Is(o.err, ErrTruncated):
			if err := seg.f.Truncate(o.end); err != nil {
				return fmt.Errorf("truncate torn spill segment %s: %w", seg.path, err)
			}
			l.Bytes.Add(o.end - seg.Size())
			seg.size.Store(o.end)
		case o.err != nil:
			l.Quarantine(seg, o.err)
			seg.f.Close()
		}
	}
	return nil
}

// Strays counts the files Recover found named like segments but not spelled
// as Create names them.
func (l *Log) Strays() int { return l.strays }

// Reserve numbers every segment Create makes from now on next or above, so a
// number something outside the log still names (an index of it) is never
// given to another file.
func (l *Log) Reserve(next uint64) {
	l.mu.Lock()
	l.nextSeq = max(l.nextSeq, next)
	l.mu.Unlock()
}

func (l *Log) path(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix))
}

// Walk calls fn with each whole frame of a segment's bytes (magic included
// and checked) in log order: its payload, offset and length. It returns where
// the last whole frame ends, with ErrTruncated when data ends inside the next
// — a torn append, when data is a whole file — or with the damage found, or
// with fn's error; the frames before end are good either way.
func Walk(data []byte, fn func(payload []byte, off int64, n int) error) (end int64, err error) {
	if !bytes.HasPrefix(data, []byte(Magic)) {
		return 0, ErrMagic
	}
	end = int64(len(Magic))
	for end < int64(len(data)) {
		payload, n, err := Wire.NextFrame(data[end:], MaxFrame)
		if err != nil {
			return end, err
		}
		if err := fn(payload, end, n); err != nil {
			return end, err
		}
		end += int64(n)
	}
	return end, nil
}

// Create makes the next segment and puts it in service, Active: numbered above
// every one in use, created exclusively, its magic fsynced before any frame
// (so a crash inside the first append leaves a torn tail, not a file without
// its magic) and its directory entry synced (so no frame lands in a file whose
// name never reached the disk).
func (l *Log) Create() (*Segment, error) {
	l.mu.Lock()
	seq := l.nextSeq
	l.nextSeq++
	l.mu.Unlock()
	seg := &Segment{Seq: seq, path: l.path(seq)}
	f, err := l.fs.OpenFile(seg.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	if _, err = f.WriteAt([]byte(Magic), 0); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		l.fs.Remove(seg.path)
		return nil, err
	}
	seg.f = f
	seg.size.Store(int64(len(Magic)))
	seg.Active.Store(true)
	l.mu.Lock()
	l.segs[seq] = seg
	l.mu.Unlock()
	l.Bytes.Add(seg.Size())
	SyncDir(l.fs, l.dir)
	return seg, nil
}

// Append writes buf, whole frames, at the segment's end and fsyncs it,
// returning the offset buf starts at. On failure the segment has not grown: the
// next append overwrites whatever of buf reached the file. A segment has one
// writer at a time.
func (l *Log) Append(seg *Segment, buf []byte) (int64, error) {
	base := seg.size.Load()
	if err := l.use(seg, func(f File) error {
		if _, err := f.WriteAt(buf, base); err != nil {
			return err
		}
		return f.Sync()
	}); err != nil {
		return 0, err
	}
	seg.size.Add(int64(len(buf)))
	l.Bytes.Add(int64(len(buf)))
	return base, nil
}

// Read returns the payload of the n-byte frame at off in seg, its length and
// checksum verified.
func (l *Log) Read(seg *Segment, off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := l.use(seg, func(f File) error { _, err := f.ReadAt(buf, off); return err }); err != nil {
		return nil, err
	}
	payload, got, err := Wire.NextFrame(buf, MaxFrame)
	if err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("%w: frame length drifted: ref %d, parsed %d", ErrCorrupt, n, got)
	}
	return payload, nil
}

// Contents reads the whole of a segment.
func (l *Log) Contents(seg *Segment) ([]byte, error) {
	data := make([]byte, seg.Size())
	return data, l.use(seg, func(f File) error { _, err := f.ReadAt(data, 0); return err })
}

// use runs op on the segment's file: its handle, or after Close — whose
// segments' bytes are durable — a fresh one opened for op.
func (l *Log) use(seg *Segment, op func(File) error) error {
	err := op(seg.f)
	if !errors.Is(err, os.ErrClosed) {
		return err
	}
	f, err := l.fs.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return op(f)
}

// Quarantine takes a segment whose bytes failed validation out of service:
// out of the table and the gauge, renamed aside for the operator, named in
// Quarantined and reported to onQuarantine, once however often it is called.
// Its open handle keeps working for readers that raced the rename; refs into
// it are the owner's to drop.
func (l *Log) Quarantine(seg *Segment, err error) {
	if seg.quarantined.Swap(true) {
		return
	}
	l.mu.Lock()
	delete(l.segs, seg.Seq)
	l.quarantined = append(l.quarantined, seg.Name())
	l.mu.Unlock()
	l.Bytes.Add(-seg.Size())
	if l.fs.Rename(seg.path, seg.path+quarantineSuffix) == nil {
		SyncDir(l.fs, l.dir)
	}
	l.onQuarantine(seg.Name(), err)
}

// Remove deletes a segment none of whose frames is referenced any more.
func (l *Log) Remove(seg *Segment) {
	l.mu.Lock()
	delete(l.segs, seg.Seq)
	l.mu.Unlock()
	l.Bytes.Add(-seg.Size())
	seg.f.Close()
	l.fs.Remove(seg.path)
	SyncDir(l.fs, l.dir)
}

// Segments lists the segments in service, in no order.
func (l *Log) Segments() []*Segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Segment, 0, len(l.segs))
	for _, seg := range l.segs {
		out = append(out, seg)
	}
	return out
}

// Quarantined names the segments taken out of service so far.
func (l *Log) Quarantined() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.quarantined)
}

// Close closes the segments' handles; Read and Append go on through fresh
// opens.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		seg.f.Close()
	}
}
