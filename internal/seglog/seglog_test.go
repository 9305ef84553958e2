package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"oak/internal/wire"
)

// walked is one frame as Walk reported it.
type walked struct {
	payload string
	off     int64
	n       int
}

// segmentOf lays out a segment holding payloads and returns it with the
// frames a walk must report.
func segmentOf(payloads ...string) ([]byte, []walked) {
	data := []byte(Magic)
	var frames []walked
	for _, p := range payloads {
		off := int64(len(data))
		data = wire.AppendFrame(data, []byte(p))
		frames = append(frames, walked{p, off, len(data) - int(off)})
	}
	return data, frames
}

// walkAll walks data and collects the frames it reports.
func walkAll(data []byte) ([]walked, int64, error) {
	var got []walked
	end, err := Walk(data, func(payload []byte, off int64, n int) error {
		got = append(got, walked{string(payload), off, n})
		return nil
	})
	return got, end, err
}

// testPayloads are records of a few sizes, one whose length takes a
// two-byte prefix.
var testPayloads = []string{"a", "record two", string(bytes.Repeat([]byte("x"), 200)), "last"}

func TestWalkWholeSegment(t *testing.T) {
	data, want := segmentOf(testPayloads...)
	got, end, err := walkAll(data)
	if err != nil || end != int64(len(data)) {
		t.Fatalf("Walk = end %d, %v; want %d, nil", end, err, len(data))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("frames %v, want %v", got, want)
	}

	// The magic alone is an empty segment; fn's error stops the walk at the
	// frame it refused.
	if got, end, err := walkAll([]byte(Magic)); err != nil || end != int64(len(Magic)) || len(got) != 0 {
		t.Errorf("magic only: %v, end %d, %v", got, end, err)
	}
	stop := errors.New("stop")
	end, err = Walk(data, func(_ []byte, off int64, _ int) error {
		if off == want[2].off {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || end != want[2].off {
		t.Errorf("refused third frame: end %d, %v; want %d, stop", end, err, want[2].off)
	}
}

// TestWalkCutAtEveryOffset: a segment cut anywhere — a torn append — walks to
// the last whole frame before the cut and says so with ErrTruncated, unless
// the cut falls between frames; a cut inside the magic is ErrMagic.
func TestWalkCutAtEveryOffset(t *testing.T) {
	data, frames := segmentOf(testPayloads...)
	for cut := 0; cut < len(data); cut++ {
		got, end, err := walkAll(data[:cut])
		if cut < len(Magic) {
			if !errors.Is(err, ErrMagic) || end != 0 || len(got) != 0 {
				t.Fatalf("cut %d inside the magic: %v, end %d, %v", cut, got, end, err)
			}
			continue
		}
		var whole []walked
		boundary := int64(len(Magic))
		for _, f := range frames {
			if f.off+int64(f.n) <= int64(cut) {
				whole = append(whole, f)
				boundary = f.off + int64(f.n)
			}
		}
		wantErr := ErrTruncated
		if boundary == int64(cut) {
			wantErr = nil
		}
		if !errors.Is(err, wantErr) || end != boundary || fmt.Sprint(got) != fmt.Sprint(whole) {
			t.Fatalf("cut %d: %v, end %d, %v; want %v, end %d, %v", cut, got, end, err, whole, boundary, wantErr)
		}
	}
}

// TestWalkFlippedByte: a byte flipped anywhere is damage (IsDamage), and
// every frame the walk reported before it is one the segment holds, intact.
func TestWalkFlippedByte(t *testing.T) {
	data, frames := segmentOf(testPayloads...)
	for i := range data {
		for _, bit := range []byte{0x01, 0x80} {
			bad := bytes.Clone(data)
			bad[i] ^= bit
			got, end, err := walkAll(bad)
			if err == nil || !IsDamage(err) {
				t.Fatalf("bit %#x of byte %d flipped: %v, end %d, %v; want damage", bit, i, got, end, err)
			}
			if len(got) > len(frames) || fmt.Sprint(got) != fmt.Sprint(frames[:len(got)]) {
				t.Fatalf("bit %#x of byte %d flipped: reported %v, not a prefix of %v", bit, i, got, frames)
			}
		}
	}
}

// TestWalkFrameOverMaxFrame: a length prefix over MaxFrame is ErrOversized at
// that frame, however few bytes follow it; one at MaxFrame over too few bytes
// is a torn tail.
func TestWalkFrameOverMaxFrame(t *testing.T) {
	data, frames := segmentOf("kept")
	good := int64(len(data))
	for _, tc := range []struct {
		length uint64
		want   error
	}{
		{MaxFrame + 1, ErrOversized},
		{1 << 40, ErrOversized},
		{MaxFrame, ErrTruncated},
	} {
		bad := binary.AppendUvarint(bytes.Clone(data), tc.length)
		bad = append(bad, "some bytes"...)
		got, end, err := walkAll(bad)
		if !errors.Is(err, tc.want) || end != good || fmt.Sprint(got) != fmt.Sprint(frames) {
			t.Errorf("length %d: %v, end %d, %v; want %v, end %d, %v", tc.length, got, end, err, frames, good, tc.want)
		}
	}
}
