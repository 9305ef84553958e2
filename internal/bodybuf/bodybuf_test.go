package bodybuf

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// pattern is n bytes with a period (251) that no power-of-two buffer size
// shares, so a copy that lands at the wrong offset shows.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i % 251)
	}
	return p
}

func TestReadStagesWholeBody(t *testing.T) {
	for _, tc := range []struct {
		name     string
		size     int
		declared int64
	}{
		{"empty declared", 0, 0},
		{"empty undeclared", 0, -1},
		{"report declared", 5700, 5700},
		{"page declared", 128 << 10, 128 << 10},
		{"undeclared grows", 300 << 10, -1},
		{"declaration short of the body", 50 << 10, 10},
		{"past the pooled sizes", 3 << 20, 3 << 20},
	} {
		want := pattern(tc.size)
		b, err := Read(bytes.NewReader(want), tc.declared, 64<<20)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(b.Bytes(), want) || b.Len() != len(want) {
			t.Errorf("%s: staged %d bytes, differ from the %d sent", tc.name, b.Len(), len(want))
		}
		b.Release()
	}
}

// TestReadSteadyStateAllocatesNothing is the point of the package: a body
// that arrives with its length declared is staged in one pooled buffer of
// the size class that holds it, with no growth and no garbage.
func TestReadSteadyStateAllocatesNothing(t *testing.T) {
	if poisonOnRelease {
		t.Skip("race build: instrumentation allocates")
	}
	for _, size := range []int{5700, 8 << 10, 128 << 10} {
		body := pattern(size)
		var src bytes.Reader
		allocs := testing.AllocsPerRun(100, func() {
			src.Reset(body)
			b, err := Read(&src, int64(size), 64<<20)
			if err != nil || b.Len() != size || cap(b.Bytes()) >= 2*(size+bytes.MinRead) {
				t.Fatalf("body of %d: err %v, staged %d in a %d-byte buffer", size, err, b.Len(), cap(b.Bytes()))
			}
			b.Release()
		})
		if allocs != 0 {
			t.Errorf("body of %d: %v allocs per staged body, want 0", size, allocs)
		}
	}
}

func TestReadSlowAndFailingReaders(t *testing.T) {
	want := pattern(20000)
	b, err := Read(iotest.OneByteReader(bytes.NewReader(want)), -1, 1<<20)
	if err != nil || !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("one byte at a time: err %v, %d bytes", err, b.Len())
	}
	b.Release()

	boom := errors.New("boom")
	if _, err := Read(io.MultiReader(bytes.NewReader(want), iotest.ErrReader(boom)), -1, 1<<20); !errors.Is(err, boom) {
		t.Errorf("mid-body failure: err = %v, want boom", err)
	}
}

func TestReadLimit(t *testing.T) {
	const limit = 10000
	for _, tc := range []struct {
		name     string
		size     int
		declared int64
		tooLarge bool
	}{
		{"at the limit", limit, limit, false},
		{"at the limit, undeclared", limit, -1, false},
		{"one over, declared", limit + 1, limit + 1, true},
		{"one over, undeclared", limit + 1, -1, true},
		{"one over, declared under", limit + 1, 100, true},
		{"far over, undeclared", 40 * limit, -1, true},
	} {
		b, err := Read(bytes.NewReader(pattern(tc.size)), tc.declared, limit)
		if tc.tooLarge {
			if !errors.Is(err, ErrTooLarge) {
				t.Errorf("%s: err = %v, want ErrTooLarge", tc.name, err)
			}
			continue
		}
		if err != nil || b.Len() != tc.size {
			t.Errorf("%s: err %v", tc.name, err)
			continue
		}
		b.Release()
	}
	// A limit just past a buffer size: the growth that detects the overflow
	// is limit+1, not a doubling.
	if _, err := Read(strings.NewReader(strings.Repeat("x", 5000)), -1, 4096); !errors.Is(err, ErrTooLarge) {
		t.Errorf("limit at a buffer size: err = %v", err)
	}
	// No limit to speak of must not overflow the growth arithmetic.
	b, err := Read(bytes.NewReader(pattern(9000)), -1, math.MaxInt64)
	if err != nil || b.Len() != 9000 {
		t.Fatalf("unlimited: err %v", err)
	}
	b.Release()
}

func TestGetSizes(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 4 << 10}, {4 << 10, 4 << 10}, {4<<10 + 1, 8 << 10}, {64 << 10, 64 << 10},
		{1 << 20, 1 << 20}, {1<<20 + 1, 1<<20 + 1},
	} {
		b := Get(tc.n)
		if b.Len() != 0 || cap(b.Bytes()) != tc.want {
			t.Errorf("Get(%d): len %d cap %d, want 0 and %d", tc.n, b.Len(), cap(b.Bytes()), tc.want)
		}
		b.Release()
	}
}

// TestReleaseIsOnce: a second Release would put one buffer in the pool
// twice and hand it to two bodies; it is a bug, reported as one.
func TestReleaseIsOnce(t *testing.T) {
	b := Get(100)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("releasing a released buffer did not panic")
		}
	}()
	b.Release()
}

// TestConcurrentBodiesStayApart stages distinct bodies from many goroutines
// through the shared pools; under -race the poison on release turns any
// buffer handed to two of them into a reported race.
func TestConcurrentBodiesStayApart(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := bytes.Repeat([]byte{byte(g), byte(i)}, 1000+37*g+i)
				b, err := Read(bytes.NewReader(want), int64(len(want)), 1<<20)
				if err != nil {
					t.Error(err)
					return
				}
				same := bytes.Equal(b.Bytes(), want)
				b.Release()
				if !same {
					t.Errorf("goroutine %d body %d came back changed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
