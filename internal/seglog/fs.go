package seglog

import (
	"io"
	"os"
)

// FS is the file-ops seam: every durable byte the engine writes or reads back
// — segment files here, the state file in internal/core — goes through one.
// OS is the only implementation outside tests, which wrap it to refuse or
// record operations.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// File is an open file of an FS; *os.File is one.
type File interface {
	io.ReaderAt
	io.WriterAt
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OS is the FS of the operating system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

// ReadFile reads the named file whole.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f)
}

// MapFile is ReadFile through mapAll, for a file of the spill directory.
func MapFile(fsys FS, name string) (data []byte, release func(), err error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return mapAll(f)
}

// readAll reads an open file from its start to its end.
func readAll(f File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	_, err = f.ReadAt(data, 0)
	return data, err
}

// mapAll is readAll for bytes read once and dropped: an *os.File is mapped
// where the system can, not copied (no heap to fault in, no garbage for the
// GC), and release unmaps it; any other File is read. A read of a mapped file
// that something else cuts short faults the process (SIGBUS), so only the
// files of a spill directory, which one engine owns, are mapped.
func mapAll(f File) (data []byte, release func(), err error) {
	if of, ok := f.(*os.File); ok && mapFile != nil {
		if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
			if data, release = mapFile(of, int(fi.Size())); data != nil {
				return data, release, nil
			}
		}
	}
	data, err = readAll(f)
	return data, func() {}, err
}

// mapFile maps f's first size bytes read-only, or returns nil (fs_unix.go).
var mapFile func(f *os.File, size int) (data []byte, unmap func())

// WriteFileSync writes data as the whole of the named file and fsyncs it
// before closing, so the bytes are durable before a rename makes them visible.
func WriteFileSync(fsys FS, name string, data []byte) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(data, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory so a finished create, rename or remove in it
// survives power loss. Best-effort: some filesystems refuse a directory fsync,
// and the data itself is durable already.
func SyncDir(fsys FS, dir string) {
	if d, err := fsys.OpenFile(dir, os.O_RDONLY, 0); err == nil {
		d.Sync()
		d.Close()
	}
}
