package core

import (
	"bytes"
	"os"
	"sync"

	"oak/internal/seglog"
)

// withFS runs the engine's durable I/O — segments and state files — over fs.
func withFS(fs seglog.FS) Option { return func(e *Engine) { e.fs = fs } }

// testFS is the seam's fake: it passes every operation on to seglog.OS,
// refuses the ones its refuse function names, and — once recording — logs
// every mutating one, with the bytes written, so a test can rebuild the
// directory as any prefix of the run left it.
type testFS struct {
	mu sync.Mutex
	// refuse sees each operation before it runs — op is one of create,
	// write, sync, read, truncate, rename (path is the source) and remove —
	// and fails it with a non-nil error.
	refuse func(op, path string) error
	// trace is nil until record, then the mutating operations in order;
	// files maps each path to the id of the file there now.
	trace  []fsOp
	files  map[string]int
	nextID int
}

// fsOp is one mutating operation as the seam saw it, or an ack: a mark the
// test drops when an engine call has returned.
type fsOp struct {
	kind     string // mkdir, create, write, truncate, sync, rename, remove, ack
	path, to string // mkdir, create, rename (path → to), remove
	file     int    // create (the new file's id), write, truncate, sync
	off      int64  // write: offset; truncate: size
	data     []byte // write
}

func (f *testFS) setRefuse(fn func(op, path string) error) {
	f.mu.Lock()
	f.refuse = fn
	f.mu.Unlock()
}

func (f *testFS) check(op, path string) error {
	f.mu.Lock()
	fn := f.refuse
	f.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op, path)
}

// record starts the trace.
func (f *testFS) record() {
	f.mu.Lock()
	f.trace, f.files = []fsOp{}, map[string]int{}
	f.mu.Unlock()
}

// ack marks that every operation so far belongs to an engine call that has
// returned.
func (f *testFS) ack() { f.log(fsOp{kind: "ack"}) }

// log appends op to the trace, if recording, and keeps files current; a
// create gets its file id here.
func (f *testFS) log(op fsOp) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.trace == nil {
		return 0
	}
	switch op.kind {
	case "create":
		f.nextID++
		op.file = f.nextID
		f.files[op.path] = op.file
	case "rename":
		f.files[op.to] = f.files[op.path]
		delete(f.files, op.path)
	case "remove":
		delete(f.files, op.path)
	}
	f.trace = append(f.trace, op)
	return op.file
}

func (f *testFS) OpenFile(name string, flag int, perm os.FileMode) (seglog.File, error) {
	creates := flag&os.O_CREATE != 0
	if creates {
		if err := f.check("create", name); err != nil {
			return nil, err
		}
	}
	file, err := seglog.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	tf := &testFile{File: file, fs: f, path: name}
	if creates {
		tf.id = f.log(fsOp{kind: "create", path: name})
	} else {
		f.mu.Lock()
		tf.id = f.files[name] // 0 for a directory, or when not recording
		f.mu.Unlock()
	}
	return tf, nil
}

func (f *testFS) ReadDir(name string) ([]os.DirEntry, error) { return seglog.OS.ReadDir(name) }

func (f *testFS) MkdirAll(path string, perm os.FileMode) error {
	if err := seglog.OS.MkdirAll(path, perm); err != nil {
		return err
	}
	f.log(fsOp{kind: "mkdir", path: path})
	return nil
}

func (f *testFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename", oldpath); err != nil {
		return err
	}
	if err := seglog.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.log(fsOp{kind: "rename", path: oldpath, to: newpath})
	return nil
}

func (f *testFS) Remove(name string) error {
	if err := f.check("remove", name); err != nil {
		return err
	}
	if err := seglog.OS.Remove(name); err != nil {
		return err
	}
	f.log(fsOp{kind: "remove", path: name})
	return nil
}

// testFile is a file opened through testFS.
type testFile struct {
	seglog.File
	fs   *testFS
	path string // where it was opened
	id   int    // its id in the trace; 0 for a directory
}

func (t *testFile) ReadAt(b []byte, off int64) (int, error) {
	if err := t.fs.check("read", t.path); err != nil {
		return 0, err
	}
	return t.File.ReadAt(b, off)
}

func (t *testFile) WriteAt(b []byte, off int64) (int, error) {
	if err := t.fs.check("write", t.path); err != nil {
		return 0, err
	}
	n, err := t.File.WriteAt(b, off)
	t.fs.log(fsOp{kind: "write", file: t.id, off: off, data: bytes.Clone(b[:n])})
	return n, err
}

func (t *testFile) Truncate(size int64) error {
	if err := t.fs.check("truncate", t.path); err != nil {
		return err
	}
	if err := t.File.Truncate(size); err != nil {
		return err
	}
	t.fs.log(fsOp{kind: "truncate", file: t.id, off: size})
	return nil
}

func (t *testFile) Sync() error {
	if err := t.fs.check("sync", t.path); err != nil {
		return err
	}
	if err := t.File.Sync(); err != nil {
		return err
	}
	if t.id != 0 {
		t.fs.log(fsOp{kind: "sync", file: t.id})
	}
	return nil
}
