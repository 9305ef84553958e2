package core

import "fmt"

// Per-user-range state transfer: the cluster gateway partitions users
// across backends by contiguous arcs of the 32-bit FNV-1a user-hash ring —
// the same hash that stripes users across an engine's shards. These
// functions let a node export or import just one arc, which is what makes
// live rebalancing and snapshot-driven node replacement possible: a standby
// can donate exactly the range a dead node owned, and a new node can
// ingest it without disturbing users it already holds.
//
// A whole-space range (Lo == Hi) degenerates to the whole-engine paths:
// exportStateRange of the whole space is byte-identical to ExportState, so
// the union of a disjoint cover of the ring carries exactly the profiles of
// a whole-engine export.

// HashRange is a half-open arc [Lo, Hi) of the 32-bit user-hash ring
// (UserHash space). Hi may be numerically below Lo, in which case the arc
// wraps through zero. Lo == Hi denotes the whole ring — there is no empty
// HashRange, because an empty transfer has no use.
type HashRange struct {
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
}

// Whole reports whether the range covers the entire hash ring.
func (r HashRange) Whole() bool { return r.Lo == r.Hi }

// Contains reports whether a user-hash value falls inside the arc.
func (r HashRange) Contains(h uint32) bool {
	switch {
	case r.Lo == r.Hi:
		return true
	case r.Lo < r.Hi:
		return h >= r.Lo && h < r.Hi
	default: // wraps through zero
		return h >= r.Lo || h < r.Hi
	}
}

// String renders the arc in the [lo,hi) hex form used in errors and logs.
func (r HashRange) String() string {
	if r.Whole() {
		return "[whole ring]"
	}
	return fmt.Sprintf("[%08x,%08x)", r.Lo, r.Hi)
}

// EqualRanges splits the hash ring into n contiguous, disjoint, equal-width
// arcs whose union is the whole ring — the partition a gateway uses to
// assign users to n backends. n <= 0 yields nil; n == 1 yields the
// whole-space range.
func EqualRanges(n int) []HashRange {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []HashRange{{}}
	}
	step := uint64(1<<32) / uint64(n)
	out := make([]HashRange, n)
	for i := range out {
		out[i].Lo = uint32(uint64(i) * step)
		if i < n-1 {
			out[i].Hi = uint32(uint64(i+1) * step)
		}
		// The last arc's Hi stays 0: [Lo, 2^32) expressed on the ring.
	}
	return out
}

// RangeFor returns which of a disjoint cover's arcs owns the user. The
// ranges must cover the ring (as EqualRanges' do); -1 means they do not.
func RangeFor(userID string, ranges []HashRange) int {
	h := userHash(userID)
	for i, r := range ranges {
		if r.Contains(h) {
			return i
		}
	}
	return -1
}

// ExportSnapshotRange is exportStateRange wrapped in the checksummed
// OAKSNAP2 envelope, the form shipped between nodes.
func (e *Engine) ExportSnapshotRange(r HashRange) ([]byte, error) {
	payload, err := e.exportStateRange(r)
	if err != nil {
		return nil, err
	}
	return wrapSnapshot(payload), nil
}

// ImportStateRange restores one arc of the hash ring from a range (or
// whole-engine) export, replacing existing profiles inside the arc and
// leaving every profile outside it untouched. The payload is authoritative
// for the arc: in-range users absent from it are removed. Profiles that
// hash outside the arc fail the import with ErrCorruptState before any
// state is touched.
//
// Unlike ImportState, the engine-global guard and population sections are
// only overwritten when the payload carries them — a range donated by a
// peer updates this node's breaker and degraded-provider state, while a
// stripped payload tops up profiles without clobbering local protective
// state. The swap holds every shard lock, so readers never see a
// half-imported arc.
func (e *Engine) ImportStateRange(r HashRange, data []byte) error {
	return e.importRange(r, data, false, true)
}
