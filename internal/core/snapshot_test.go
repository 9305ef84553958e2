package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"oak/internal/rules"
)

// goodSnapshot returns a valid checksummed snapshot holding one user.
func goodSnapshot(t *testing.T) []byte {
	t.Helper()
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	data, err := e.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotRoundTrip(t *testing.T) {
	data := goodSnapshot(t)
	if !bytes.HasPrefix(data, []byte("OAKSNAP2 ")) {
		t.Fatalf("snapshot header missing: %q", data[:min(len(data), 40)])
	}
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if err := e.ImportState(data); err != nil {
		t.Fatal(err)
	}
	if e.Users() != 1 {
		t.Errorf("Users = %d, want 1", e.Users())
	}
}

func TestImportLegacyPlainJSONStateStillLoads(t *testing.T) {
	// State files written before the checksummed envelope existed are plain
	// ExportState JSON; they must keep loading.
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	legacy, err := e1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if err := e2.ImportState(legacy); err != nil {
		t.Fatalf("legacy plain-JSON state rejected: %v", err)
	}
	if e2.Users() != 1 {
		t.Errorf("Users = %d, want 1", e2.Users())
	}
}

func TestImportStateHostileInputs(t *testing.T) {
	good := goodSnapshot(t)
	nl := bytes.IndexByte(good, '\n')
	header, payload := good[:nl+1], good[nl+1:]

	truncated := append(append([]byte{}, header...), payload[:len(payload)/2]...)

	flipped := append([]byte{}, good...)
	flipped[len(flipped)-2] ^= 0x40 // payload bit flip: CRC must catch it

	badCRC := append([]byte(fmt.Sprintf("OAKSNAP2 crc32c=%08x len=%d\n",
		crc32.Checksum(payload, snapshotCRC)^1, len(payload))), payload...)

	futureGen := append([]byte("OAKSNAP3 sha256=00 len=5\n"), []byte("hello")...)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorruptState},
		{"whitespace only", []byte("  \n\t"), ErrCorruptState},
		{"truncated payload", truncated, ErrCorruptState},
		{"payload bit flip", flipped, ErrCorruptState},
		{"checksum mismatch", badCRC, ErrCorruptState},
		{"unterminated header", []byte("OAKSNAP2 crc32c=00000000 len=10"), ErrCorruptState},
		{"malformed gen-2 header", []byte("OAKSNAP2 what\n{}"), ErrCorruptState},
		{"future generation", futureGen, ErrStateVersion},
		{"wrong payload version", []byte(`{"version":99}`), ErrStateVersion},
		{"undecodable payload", []byte(`{nope`), ErrCorruptState},
		{"profile without user id", []byte(`{"version":1,"profiles":[{"userId":""}]}`), ErrCorruptState},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := NewEngine([]*rules.Rule{jqRule(0)})
			err := e.ImportState(tc.data)
			if !errors.Is(err, tc.want) {
				t.Errorf("ImportState error = %v, want %v", err, tc.want)
			}
			if e.Users() != 0 {
				t.Errorf("rejected import still populated %d users", e.Users())
			}
		})
	}
}

func TestImportStateFailureLeavesStateUntouched(t *testing.T) {
	// A failed import must not wipe what the engine already knows.
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("existing")); err != nil {
		t.Fatal(err)
	}
	if err := e.ImportState([]byte("OAKSNAP2 crc32c=00000000 len=3\nxyz")); err == nil {
		t.Fatal("corrupt import succeeded")
	}
	if e.Users() != 1 {
		t.Errorf("failed import disturbed existing state: Users = %d, want 1", e.Users())
	}
}

// FuzzImportState asserts ImportState never panics and never half-imports:
// on any input it either succeeds or leaves the engine exactly as it was.
func FuzzImportState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"profiles":[{"userId":"u"}]}`))
	f.Add([]byte("OAKSNAP2 crc32c=00000000 len=0\n"))
	f.Add([]byte("OAKSNAP2 crc32c=deadbeef len=3\nxyz"))
	f.Add([]byte("OAKSNAP9 future\n{}"))
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if seed, err := e.ExportSnapshot(); err == nil {
		f.Add(seed)
	}
	// Profiles that carry versions: hand-written, and as this engine exports
	// them.
	f.Add([]byte(`{"version":1,"profiles":[{"userId":"u","lastReport":"2026-01-01T00:00:00Z","version":18446744073709551615},{"userId":"v","version":0}]}`))
	for _, uid := range []string{"u", "u", "v"} {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			f.Fatal(err)
		}
	}
	if seed, err := e.ExportSnapshot(); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, _ := NewEngine([]*rules.Rule{jqRule(0)})
		if _, err := e.HandleReport(slowS1Report("sentinel")); err != nil {
			t.Fatal(err)
		}
		if err := e.ImportState(data); err != nil {
			if e.Users() != 1 {
				t.Fatalf("failed import mutated state: Users = %d", e.Users())
			}
			return
		}
		// Successful imports must re-export cleanly.
		if _, err := e.ExportSnapshot(); err != nil {
			t.Fatalf("re-export after import: %v", err)
		}
	})
}
