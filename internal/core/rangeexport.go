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
// ExportStateRange of the whole space is byte-identical to ExportState, so
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

// ExportStateRange serialises the per-user state of one arc of the hash
// ring as JSON. The guard and population sections are engine-global and are
// carried in full by every range export — a partial export is still enough
// to rebuild a node's protective state. Exporting the whole-space range is
// byte-identical to ExportState.
func (e *Engine) ExportStateRange(r HashRange) ([]byte, error) {
	return e.exportStateRange(r)
}

// ExportSnapshotRange is ExportStateRange wrapped in the checksummed
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
	st, err := decodeState(data)
	if err != nil {
		return err
	}
	fresh, freshIdx, err := e.buildImport(st, r)
	if err != nil {
		return err
	}

	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	spilledLive := int64(0)
	for i, sh := range e.shards {
		// Evict the arc's current population: profiles, their provider-index
		// entries, and — the payload is authoritative for the arc — any
		// spilled records of in-range users.
		for uid, prof := range sh.profiles {
			if r.Contains(userHash(uid)) {
				delete(sh.profiles, uid)
				if e.spill != nil {
					sh.residentBytes.Add(-int64(prof.sizeEst))
				}
			}
		}
		if sh.spilled != nil {
			e.mergeSpillLocked(sh, fresh[i], freshIdx[i], false, r)
			spilledLive += int64(len(sh.spilled))
		}
		for host, users := range sh.provIndex {
			for uid := range users {
				if r.Contains(userHash(uid)) {
					delete(users, uid)
				}
			}
			if len(users) == 0 {
				delete(sh.provIndex, host)
			}
		}
		// Install the payload's profiles (all verified in-range above).
		for uid, prof := range fresh[i] {
			sh.profiles[uid] = prof
			if e.spill != nil {
				sh.residentBytes.Add(int64(prof.sizeEst))
			}
		}
		for host, users := range freshIdx[i] {
			if sh.provIndex == nil {
				sh.provIndex = make(map[string]map[string]map[string]struct{})
			}
			dst := sh.provIndex[host]
			if dst == nil {
				dst = make(map[string]map[string]struct{}, len(users))
				sh.provIndex[host] = dst
			}
			for uid, set := range users {
				dst[uid] = set
			}
		}
		sh.users.Set(int64(len(sh.profiles)))
	}
	if st.Guard != nil && e.guard != nil {
		e.guard.Import(st.Guard)
	}
	if st.Population != nil {
		e.importPop(st.Population)
	}
	if e.spill != nil {
		e.spill.spilledUsers.Set(spilledLive)
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	// The donated arc can push the node over its residency cap; evict back
	// under it.
	if e.spill != nil {
		for _, sh := range e.shards {
			e.enforceResidency(sh)
		}
	}
	return nil
}
