//go:build unix

package seglog

import (
	"os"
	"syscall"
)

// A failed map is nil, so the file is read; a failed unmap keeps the mapping.
func init() {
	mapFile = func(f *os.File, size int) ([]byte, func()) {
		data, _ := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE)
		return data, func() { _ = syscall.Munmap(data) }
	}
}
