package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"oak/internal/rules"
)

func TestHashRangeContains(t *testing.T) {
	whole := HashRange{}
	if !whole.Whole() || !whole.Contains(0) || !whole.Contains(1<<31) || !whole.Contains(^uint32(0)) {
		t.Error("whole range must contain everything")
	}
	plain := HashRange{Lo: 100, Hi: 200}
	for h, want := range map[uint32]bool{99: false, 100: true, 199: true, 200: false} {
		if plain.Contains(h) != want {
			t.Errorf("plain.Contains(%d) = %v, want %v", h, !want, want)
		}
	}
	wrap := HashRange{Lo: 0xF0000000, Hi: 0x10000000}
	for h, want := range map[uint32]bool{
		0xF0000000: true, 0xFFFFFFFF: true, 0: true, 0x0FFFFFFF: true,
		0x10000000: false, 0x80000000: false,
	} {
		if wrap.Contains(h) != want {
			t.Errorf("wrap.Contains(%08x) = %v, want %v", h, !want, want)
		}
	}
}

func TestEqualRangesCoverDisjointly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		ranges := EqualRanges(n)
		if len(ranges) != n {
			t.Fatalf("EqualRanges(%d) has %d arcs", n, len(ranges))
		}
		// Every probe hash must land in exactly one arc.
		probes := []uint32{0, 1, 1 << 30, 1 << 31, 3 << 30, ^uint32(0)}
		for i := 0; i < 64; i++ {
			probes = append(probes, userHash(fmt.Sprintf("probe-%d", i)))
		}
		for _, h := range probes {
			owners := 0
			for _, r := range ranges {
				if r.Contains(h) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d: hash %08x owned by %d arcs", n, h, owners)
			}
		}
	}
	if EqualRanges(0) != nil {
		t.Error("EqualRanges(0) should be nil")
	}
}

func TestRangeForMatchesShardHash(t *testing.T) {
	ranges := EqualRanges(4)
	for i := 0; i < 100; i++ {
		uid := fmt.Sprintf("user-%d", i)
		want := int(UserHash(uid) / (1 << 30))
		if got := RangeFor(uid, ranges); got != want {
			t.Errorf("RangeFor(%q) = %d, want %d", uid, got, want)
		}
	}
	if got := RangeFor("anyone", []HashRange{{Lo: 1, Hi: 2}}); got != -1 {
		t.Errorf("RangeFor over a non-cover = %d, want -1", got)
	}
}

// seedUsers ingests one slow-s1 report for each of n distinct users. The
// IDs carry a multiplicative-hash suffix because FNV-1a clusters sequential
// strings badly — plain "user-0..n" IDs can all land on one arc.
func seedUsers(t *testing.T, e *Engine, n int) []string {
	t.Helper()
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("range-user-%d-%08x", i, uint32(i)*2654435761)
		if _, err := e.HandleReport(slowS1Report(users[i])); err != nil {
			t.Fatal(err)
		}
	}
	return users
}

func TestExportStateRangeWholeIsByteIdentical(t *testing.T) {
	clock := newTestClock()
	e, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	seedUsers(t, e, 16)

	whole, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := e.exportStateRange(HashRange{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, ranged) {
		t.Error("whole-space exportStateRange differs from ExportState")
	}
	// And the whole export must not mention a range at all, so snapshots
	// written before range exports existed stay byte-compatible.
	if bytes.Contains(whole, []byte(`"range"`)) {
		t.Error("whole export carries a range field")
	}
}

func TestRangeExportRoundTripsByteStably(t *testing.T) {
	clock := newTestClock()
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	users := seedUsers(t, e1, 24)

	r := EqualRanges(4)[1]
	data, err := e1.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}
	inRange := 0
	for _, u := range users {
		if r.Contains(UserHash(u)) {
			inRange++
		}
	}
	if inRange == 0 {
		t.Fatal("test users all missed the arc; widen the seed")
	}

	e2, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err := e2.ImportStateRange(r, data); err != nil {
		t.Fatal(err)
	}
	if e2.Users() != inRange {
		t.Errorf("imported %d users, want %d", e2.Users(), inRange)
	}
	again, err := e2.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("range export did not round-trip byte-stably")
	}
	// The imported activations still rewrite pages.
	for _, u := range users {
		if !r.Contains(UserHash(u)) {
			continue
		}
		out, _ := e2.ModifyPage(u, "/index.html", `<script src="http://s1.com/jquery.js">`)
		if !strings.Contains(out, "s2.net") {
			t.Fatalf("user %s lost activation across range round-trip", u)
		}
		break
	}
}

// TestRangeImportCarriesVersions: a donated arc arrives with each profile's
// version, so the receiving node's next save and its spill records order
// against the donor's the way the donor's own would have.
func TestRangeImportCarriesVersions(t *testing.T) {
	clock := newTestClock()
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	users := seedUsers(t, e1, 24)
	for i, u := range users { // versions 1..4
		for n := 0; n < i%4; n++ {
			if _, err := e1.HandleReport(healthyReport(u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := EqualRanges(4)[1]
	data, err := e1.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 2}) // most of the arc is evicted on arrival
	if err := e2.ImportStateRange(r, data); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, u := range users {
		if !r.Contains(UserHash(u)) {
			continue
		}
		snap, ok := e2.Snapshot(u)
		if want := uint64(1 + i%4); !ok || snap.Version != want {
			t.Errorf("%s (%s) arrived at version %d (%v), want %d", u, e2.Residency(u), snap.Version, ok, want)
		}
		checked++
	}
	if st, _ := e2.SpillStatus(); checked < 3 || st.ProfilesSpilled == 0 {
		t.Fatalf("checked %d users, %d spilled; widen the seed", checked, st.ProfilesSpilled)
	}
	again, err := e2.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("range export did not round-trip byte-stably through a capped engine")
	}
}

func TestRangeUnionEqualsWholeExport(t *testing.T) {
	clock := newTestClock()
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	seedUsers(t, e1, 32)
	whole, err := e1.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Import each arc of a disjoint cover into a fresh engine; the union
	// must rebuild the donor exactly.
	e2, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	for _, r := range EqualRanges(5) {
		data, err := e1.exportStateRange(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.ImportStateRange(r, data); err != nil {
			t.Fatalf("import %v: %v", r, err)
		}
	}
	if e2.Users() != e1.Users() {
		t.Fatalf("union rebuilt %d users, donor has %d", e2.Users(), e1.Users())
	}
	rebuilt, err := e2.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, rebuilt) {
		t.Error("union of range imports re-exports differently from the donor")
	}
}

func TestImportStateRangeRejectsOutOfRangeProfiles(t *testing.T) {
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)})
	seedUsers(t, e1, 8)
	whole, err := e1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// A narrow arc cannot absorb a whole-engine export: some profile hashes
	// outside it, and the import must fail without touching state.
	e2, _ := NewEngine([]*rules.Rule{jqRule(0)})
	narrow := HashRange{Lo: 1, Hi: 2}
	err = e2.ImportStateRange(narrow, whole)
	if !errors.Is(err, ErrCorruptState) {
		t.Fatalf("out-of-range import error = %v, want ErrCorruptState", err)
	}
	if e2.Users() != 0 {
		t.Errorf("failed import leaked %d profiles", e2.Users())
	}
}

func TestExportSnapshotRangeCarriesEnvelope(t *testing.T) {
	clock := newTestClock()
	e, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	seedUsers(t, e, 8)
	r := EqualRanges(2)[1]
	snap, err := e.ExportSnapshotRange(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap, []byte("OAKSNAP2 ")) {
		t.Fatalf("snapshot missing envelope: %q", snap[:20])
	}
	// The envelope is accepted by the range importer (unwrap + verify).
	e2, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err := e2.ImportStateRange(r, snap); err != nil {
		t.Fatal(err)
	}
	// A flipped bit fails the checksum.
	bad := append([]byte(nil), snap...)
	bad[len(bad)-2] ^= 0x40
	if err := e2.ImportStateRange(r, bad); !errors.Is(err, ErrCorruptState) {
		t.Errorf("corrupted snapshot error = %v, want ErrCorruptState", err)
	}
}

// TestRangeImportHammer drives range imports, report ingest and page serves
// concurrently; run under -race it proves the all-shard-lock swap never
// exposes a half-imported arc.
func TestRangeImportHammer(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithShards(4))
	donor, _ := NewEngine([]*rules.Rule{jqRule(0)})
	users := seedUsers(t, donor, 16)
	r := EqualRanges(2)[0]
	data, err := donor.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := e.ImportStateRange(r, data); err != nil {
				t.Errorf("import: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := e.HandleReport(slowS1Report(users[i%len(users)])); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		page := `<script src="http://s1.com/jquery.js">`
		for i := 0; i < iters; i++ {
			_, _ = e.ModifyPage(users[i%len(users)], "/index.html", page)
			_ = e.Users()
			_, _ = e.Snapshot(users[(i+7)%len(users)])
		}
	}()
	wg.Wait()

	// The final import wins for the arc; everything must still be coherent.
	if err := e.ImportStateRange(r, data); err != nil {
		t.Fatal(err)
	}
	again, err := e.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) == 0 {
		t.Fatal("empty export after hammer")
	}
}
