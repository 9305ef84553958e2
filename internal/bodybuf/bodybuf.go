// Package bodybuf stages HTTP bodies in pooled buffers. Every tier that
// must hold a whole body before acting on it — the gateway (a body is
// sniffed, split and re-sent; a page is relayed only once complete), the
// origin (a report is decoded from contiguous bytes) and the forward client
// — reads it here, once, into a buffer sized from the declared
// Content-Length, instead of re-growing a fresh slice per body.
//
// A Buf has one owner: whoever called Get or Read, until it calls Release.
// The bytes are invalid from that instant, so they must never be handed to
// anything that can outlive the owner's use of them — in particular not to
// net/http as a request body, which the transport may still be sending
// after Do has returned; send a copy. Race builds overwrite the bytes on
// Release, so a reader that outlives the owner fails the race detector (and
// reads garbage) instead of silently reading another exchange's body.
package bodybuf

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"sync"
)

// ErrTooLarge is returned by Read for a body of more than limit bytes.
var ErrTooLarge = errors.New("bodybuf: body exceeds limit")

// Buffers come in power-of-two sizes, one pool per size, so a 4 KB report
// never holds a page-sized buffer. Anything larger than 1<<maxShift is
// allocated for the one body and left to the garbage collector: a 64 MB
// batch must not pin 64 MB in a pool.
const (
	minShift = 12 // 4 KB
	maxShift = 20 // 1 MB
)

var pools [maxShift - minShift + 1]sync.Pool

// Buf is one staged body.
type Buf struct {
	b        []byte
	released bool
}

// Get returns an empty buffer with room for at least n bytes.
func Get(n int) *Buf {
	var b *Buf
	if n > 1<<maxShift {
		b = &Buf{b: make([]byte, 0, n)}
	} else {
		class := 0
		if n > 1<<minShift {
			class = bits.Len(uint(n-1)) - minShift
		}
		if b, _ = pools[class].Get().(*Buf); b == nil {
			b = &Buf{b: make([]byte, 0, 1<<(class+minShift))}
		}
	}
	b.released = false
	return b
}

// Read stages r to EOF. declared is the body's Content-Length, negative
// when unknown; a body of more than limit bytes, declared or actual, is
// ErrTooLarge. The declaration sizes the buffer only up to the largest
// pooled size — past that the buffer grows as bytes arrive, so a peer
// cannot reserve memory by announcing a body it never sends.
func Read(r io.Reader, declared, limit int64) (*Buf, error) {
	if declared > limit {
		return nil, ErrTooLarge
	}
	size := 0
	if declared > 0 {
		size = int(min(declared, 1<<maxShift))
	}
	b := Get(size + bytes.MinRead) // room to see EOF without growing
	for {
		if len(b.b) == cap(b.b) {
			// len <= limit here. Double, but stop at the first size that can
			// show the limit exceeded.
			next := 2 * cap(b.b)
			if limit-int64(cap(b.b)) < int64(cap(b.b)) {
				next = int(limit) + 1
			}
			b.grow(next)
		}
		n, err := r.Read(b.b[len(b.b):cap(b.b)])
		b.b = b.b[:len(b.b)+n]
		if int64(len(b.b)) > limit {
			b.Release()
			return nil, ErrTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			b.Release()
			return nil, err
		}
	}
}

// grow moves the contents into a buffer with room for n bytes.
func (b *Buf) grow(n int) {
	nb := Get(n)
	nb.b = append(nb.b, b.b...)
	b.b, nb.b = nb.b, b.b
	nb.Release()
}

// Bytes returns the staged bytes; cap(Bytes()) is the room Get promised.
// The slice is valid until Release.
func (b *Buf) Bytes() []byte { return b.b }

// Len returns the number of staged bytes.
func (b *Buf) Len() int { return len(b.b) }

// Release ends the owner's use of the buffer and returns it to its pool.
func (b *Buf) Release() {
	if b.released {
		panic("bodybuf: Release of a released buffer")
	}
	b.released = true
	size := cap(b.b)
	if poisonOnRelease && size > 0 {
		b.b = b.b[:size]
		b.b[0] = 0xDB
		for n := 1; n < size; n *= 2 {
			copy(b.b[n:], b.b[:n])
		}
	}
	if size > 1<<maxShift {
		return
	}
	b.b = b.b[:0]
	// Every retained capacity is an exact power of two: Get makes no other.
	pools[bits.Len(uint(size))-1-minShift].Put(b)
}
