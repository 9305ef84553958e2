package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"sort"
	"time"

	"oak/internal/guard"
	"oak/internal/seglog"
)

// State persistence: an Oak deployment restarts without losing what it has
// learned about its users. ExportState captures every profile's violation
// counters and live activations; ImportState restores them against the
// engine's rule set (activations of rules it does not have are dropped, and
// expired activations are not resurrected).
//
// Both operations iterate the engine's shards deterministically: profiles
// are collected shard by shard (each shard read-locked while it is copied)
// and the output is globally sorted by user ID, so an export is stable
// regardless of shard count or hash layout, and a state file exported from
// an engine with one shard count imports cleanly into an engine with
// another. An export taken during concurrent ingest is weakly consistent
// across shards (each shard's slice is a true point-in-time copy).

// persistedState is the on-disk envelope. Guard and Population are additive
// (omitted when empty or on engines without the subsystem), so snapshots
// from engines without that state stay byte-identical to the earlier
// formats, and older snapshots decode with nil sections — which import as
// empty guard/population state.
type persistedState struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"savedAt"`
	// Range, present only on partial (per-user-range) exports, records the
	// half-open arc of the user-hash ring the profiles were filtered to.
	// Whole-engine exports omit it, so they stay byte-identical to earlier
	// format generations.
	Range      *persistedRange    `json:"range,omitempty"`
	Profiles   []persistedProfile `json:"profiles"`
	Guard      *guard.Persisted   `json:"guard,omitempty"`
	Population *popPersisted      `json:"population,omitempty"`

	// checkpoint, on a state read from a checkpoint file, is the file: the
	// records after its header frame are the state's profiles, records of
	// them (Profiles is nil) — eachProfile reads either form — or, under a
	// cap, index is the count of its index frames (indexFrames).
	checkpoint     []byte
	records, index int
}

// persistedRange is the on-disk form of a HashRange.
type persistedRange struct {
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
}

type persistedProfile struct {
	UserID     string                `json:"userId"`
	Violations map[string]int        `json:"violations,omitempty"`
	Active     []persistedActivation `json:"active,omitempty"`
	LastReport time.Time             `json:"lastReport,omitempty"`
	// Version is Profile.version, the reports ever applied. Omitted at zero,
	// which is how every profile written before the field existed reads.
	Version uint64 `json:"version,omitempty"`
}

type persistedActivation struct {
	RuleID          string    `json:"ruleId"`
	AltIndex        int       `json:"altIndex"`
	ActivatedAt     time.Time `json:"activatedAt"`
	ExpiresAt       time.Time `json:"expiresAt,omitempty"`
	TriggerServer   string    `json:"triggerServer,omitempty"`
	TriggerDistance float64   `json:"triggerDistance,omitempty"`
	Activations     int       `json:"activations"`
	Synthesized     bool      `json:"synthesized,omitempty"`
	Epoch           uint64    `json:"epoch,omitempty"` // absent before epochs existed: 0
}

// stateVersion is the current persistence format version.
const stateVersion = 1

// Typed import failures. ErrCorruptState covers everything a damaged file
// can look like — truncation, checksum mismatch, undecodable JSON, an empty
// file — so callers (LoadStateFile, oakd boot) can tell "this file is
// damaged, try the backup" apart from I/O errors. ErrStateVersion marks a
// structurally intact snapshot written by an incompatible format version.
var (
	ErrCorruptState = errors.New("engine: corrupt state")
	ErrStateVersion = errors.New("engine: unsupported state version")
)

// Snapshot envelope: ExportSnapshot wraps the JSON payload in a one-line
// header carrying a magic marker, a CRC-32C checksum and the payload
// length, so ImportState can detect torn or bit-flipped state files instead
// of restoring garbage. Headerless input is accepted as the legacy plain
// JSON format, so snapshot files written before the envelope existed still
// load.
const (
	snapshotMagic  = "OAKSNAP"
	snapshotHeader = snapshotMagic + "2 crc32c=%08x len=%d\n"
)

// snapshotCRC is the Castagnoli table used for snapshot checksums.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// ExportSnapshot serialises all per-user state as a checksummed snapshot:
// one header line (magic, CRC-32C of the payload, payload length) followed
// by the ExportState JSON payload. ImportState verifies the checksum before
// touching any profile.
func (e *Engine) ExportSnapshot() ([]byte, error) {
	return e.ExportSnapshotRange(HashRange{})
}

// wrapSnapshot prepends the checksummed OAKSNAP2 envelope to a state
// payload.
func wrapSnapshot(payload []byte) []byte {
	header := fmt.Sprintf(snapshotHeader, crc32.Checksum(payload, snapshotCRC), len(payload))
	return append([]byte(header), payload...)
}

// unwrapSnapshot strips and verifies the snapshot envelope, returning the
// JSON payload. Input without the magic prefix is returned as-is (legacy
// plain-JSON state files). A present-but-damaged envelope is ErrCorruptState;
// an envelope from an unknown format generation is ErrStateVersion.
func unwrapSnapshot(data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return data, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: snapshot header not terminated", ErrCorruptState)
	}
	var (
		sum    uint32
		length int
	)
	n, err := fmt.Sscanf(string(data[:nl+1]), snapshotHeader, &sum, &length)
	if err != nil || n != 2 {
		// The magic matched but the header did not parse as generation 2:
		// either a corrupted header or a future format.
		if bytes.HasPrefix(data, []byte(snapshotMagic+"2 ")) {
			return nil, fmt.Errorf("%w: malformed snapshot header", ErrCorruptState)
		}
		return nil, fmt.Errorf("%w: unknown snapshot generation %q", ErrStateVersion, string(data[:nl]))
	}
	payload := data[nl+1:]
	if len(payload) != length {
		return nil, fmt.Errorf("%w: snapshot truncated: header says %d payload bytes, have %d",
			ErrCorruptState, length, len(payload))
	}
	if got := crc32.Checksum(payload, snapshotCRC); got != sum {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch: header %08x, payload %08x",
			ErrCorruptState, sum, got)
	}
	return payload, nil
}

// ExportState serialises all per-user state as JSON.
func (e *Engine) ExportState() ([]byte, error) {
	return e.exportStateRange(HashRange{})
}

// exportStateRange serialises the per-user state of one arc of the hash
// ring as JSON (the whole ring when r is the whole-space range, byte-identical
// to ExportState). The guard and population sections are engine-global, not
// per-user, and are carried in full by every range export — a partial export
// is still enough to rebuild a node's protective state.
func (e *Engine) exportStateRange(r HashRange) ([]byte, error) {
	st, err := e.collectState(r, true)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(st, "", "  ")
}

// collectState is the state of the arc r, its profiles sorted by user ID:
// with export, what ExportState ships; without, the checkpoint an uncapped
// SaveStateFile writes (eachPersisted).
func (e *Engine) collectState(r HashRange, export bool) (*persistedState, error) {
	now := e.now()
	st := &persistedState{Version: stateVersion, SavedAt: now}
	if !r.Whole() {
		st.Range = &persistedRange{Lo: r.Lo, Hi: r.Hi}
	}
	if e.guard != nil {
		st.Guard = e.guard.Export() // nil (omitted) when nothing to persist
	}
	st.Population = e.exportPop() // nil (omitted) when nothing to persist
	err := e.eachPersisted(r, now, export, func(pp persistedProfile) {
		st.Profiles = append(st.Profiles, pp)
	})
	if err != nil {
		return nil, err
	}
	// Global ordering by user ID keeps the export deterministic and
	// independent of the shard layout.
	sort.Slice(st.Profiles, func(i, j int) bool {
		return st.Profiles[i].UserID < st.Profiles[j].UserID
	})
	return st, nil
}

// eachPersisted is the one walk over every user the engine holds: it calls
// visit with the persisted form of each profile in the arc r, in no
// particular order. With export it visits spilled users too and leaves out the
// activations dead at now (deadAt), wherever the profile lives, as an import
// would drop them. Without, it is the uncapped checkpoint: the resident
// profiles as they are, dead activations kept for the user's next report to
// drop and count (pruneDead), as a spilled record keeps them. The export, the
// checkpoint and the audit are folds over it. visit runs under the shard's
// read lock and must not call back into the engine.
func (e *Engine) eachPersisted(r HashRange, now time.Time, export bool, visit func(persistedProfile)) error {
	for _, sh := range e.shards {
		sh.mu.RLock()
		for uid, prof := range sh.profiles {
			if !r.Contains(userHash(uid)) {
				continue
			}
			if pp := snapshotProfile(prof); export {
				visit(e.withoutDead(pp, now))
			} else {
				visit(pp)
			}
		}
		// Spilled profiles are part of the engine's state: their records
		// decode straight to the persisted form, so a mixed resident/spilled
		// population exports byte-identically to an all-resident one. The
		// OAKPROF1 time encoding preserves the wall clock and offset exactly
		// for this reason.
		var err error
		if export {
			sh.spilled.each(func(uid []byte, ref spillRef) bool {
				if _, resident := sh.profiles[string(uid)]; resident {
					return false // visited above: the ref is an older record
				}
				if err != nil || !r.Contains(userHash(uid)) || ref.seg.Quarantined() {
					return false // a quarantined record is lost with its segment
				}
				pp, rerr := e.spill.readRecord(ref)
				switch {
				case rerr == nil:
					visit(e.withoutDead(*pp, now))
				case seglog.IsDamage(rerr):
					// Damaged record: the segment's bytes are proven bad, so
					// quarantine it exactly as the rehydrate path would —
					// healthz goes degraded and the loss shows up in the
					// quarantine accounting instead of the export silently
					// omitting a user still indexed as spilled. The ref
					// itself is dropped lazily on next touch (we hold only
					// the read lock here).
					e.spill.log.Quarantine(ref.seg, rerr)
				default:
					// I/O failure: fail the walk rather than install a
					// snapshot (or answer an audit) silently missing
					// acknowledged profiles — the previous good snapshot
					// stays in place and the segment records remain
					// recoverable at next boot.
					err = fmt.Errorf("engine: read spilled profile %q: %w", uid, rerr)
				}
				return false
			})
		}
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshotProfile deep-copies one profile into its persisted form. The
// caller must hold the profile's shard lock.
func snapshotProfile(prof *Profile) persistedProfile {
	pp := persistedProfile{
		UserID:     prof.UserID,
		Violations: maps.Clone(prof.violations),
		LastReport: prof.lastReport,
		Version:    prof.version,
	}
	ruleIDs := make([]string, 0, len(prof.active))
	for rid := range prof.active {
		ruleIDs = append(ruleIDs, rid)
	}
	sort.Strings(ruleIDs)
	for _, rid := range ruleIDs {
		a := prof.active[rid]
		pp.Active = append(pp.Active, persistedActivation{
			RuleID:          rid,
			AltIndex:        a.AltIndex,
			ActivatedAt:     a.ActivatedAt,
			ExpiresAt:       a.ExpiresAt,
			TriggerServer:   a.TriggerServer,
			TriggerDistance: a.TriggerDistance,
			Activations:     a.Activations,
			Synthesized:     a.Synthesized,
			Epoch:           a.Epoch,
		})
	}
	return pp
}

// withoutDead returns pp without the activations dead at now, filtered in
// place: pp's Active must be the caller's own copy.
func (e *Engine) withoutDead(pp persistedProfile, now time.Time) persistedProfile {
	pp.Active = slices.DeleteFunc(pp.Active, func(pa persistedActivation) bool { return e.deadAt(&pa, now) })
	return pp
}

// ImportState restores per-user state exported by ExportState or
// ExportSnapshot (the checksummed envelope is detected and verified;
// headerless input is treated as the legacy plain-JSON format), replacing
// any existing profiles. Activations referring to rules absent from the
// engine's rule set are dropped silently (the state was written under another
// configuration); one that lapsed in transit is served to no one and counted
// as an expiry by its user's next report, as a resident one is. The restore is
// atomic: every shard is locked for the swap, so no concurrent reader sees
// a half-imported state. Damaged input fails with ErrCorruptState — before
// any profile is touched — and incompatible format versions with
// ErrStateVersion.
func (e *Engine) ImportState(data []byte) error {
	return e.importRange(HashRange{}, data, false, false)
}

// importRange is the one import of a JSON state: ImportState and
// ImportStateRange are calls of it, and LoadStateFile calls its second half,
// importDecoded, on a checkpoint or a migrated JSON file. It replaces the
// profiles of the arc r (the whole ring for the first two) with the payload's
// and leaves every profile outside r untouched. The swap holds every shard
// lock, so no reader sees a half-imported arc; a payload that is damaged, or
// carries a profile outside r, fails before anything is touched.
//
// An authoritative import (newerWins false) drops every spill ref in r: the
// payload is the complete truth, as a node replacement, a donated arc or an
// operator restore demands. Under a cap it returns only once a checkpoint has
// made that durable (checkpointLocked); if that fails, the import stays
// installed, its error is returned, and a restart may bring back what it
// dropped. newerWins is LoadStateFile's one read of a state file written
// before the checkpoint moved into the spill directory: every ref stands, and
// only a copy no record supersedes (spillRef.supersedes) is built and
// installed over its user's ref — a decision that reads the spill index, so
// this one import builds its profiles inside the all-locks window.
//
// topUp says what a payload *without* a guard or population section does to
// those engine-global sections: nothing (a stripped range payload tops up
// profiles without clobbering local protective state), or, without topUp,
// replace them with empty state, as pre-guard and legacy snapshots always
// imported. A section the payload carries is installed either way, inside the
// all-locks window, so profiles and breaker states become visible together.
// An arc's import keeps the larger of each trip and quarantine count, so no
// trip on either side is undone; a whole import replaces them, as it does
// every profile. Then what it installs is squared with them (squareImport).
//
// On engines with a residency cap the import ends by re-enforcing the cap,
// so restoring a huge snapshot immediately evicts back under it.
func (e *Engine) importRange(r HashRange, data []byte, newerWins, topUp bool) error {
	st, err := decodeState(data)
	if err != nil {
		return err
	}
	return e.importDecoded(r, st, newerWins, topUp)
}

// importDecoded is importRange past the decode.
func (e *Engine) importDecoded(r HashRange, st *persistedState, newerWins, topUp bool) error {
	merge := newerWins && e.spill != nil
	var fresh []map[string]*Profile
	var err error
	if !merge {
		if fresh, err = e.buildImport(st, r, false); err != nil {
			return err
		}
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	unlock := func() {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
	}
	if merge {
		if fresh, err = e.buildImport(st, r, true); err != nil {
			unlock()
			return err
		}
	}
	if e.guard != nil {
		if st.Guard != nil || !topUp {
			e.guard.Import(st.Guard, !r.Whole())
		}
		e.squareImport(fresh, newerWins)
	}
	adopted := 0 // spilled users, resident ones over their refs left out
	for i, sh := range e.shards {
		if e.spill != nil && !newerWins {
			// Every ref in r goes, resident users' included, and its record
			// is dead.
			sh.spilled.each(func(uid []byte, ref spillRef) bool {
				if r.Contains(userHash(uid)) {
					ref.seg.Dead.Add(1)
					return true
				}
				return false
			})
		}
		if r.Whole() {
			// Nothing of the old population survives: install the maps
			// wholesale rather than insert a restart's every profile here.
			sh.profiles = fresh[i]
		} else {
			replaceArcLocked(sh, r, fresh[i])
		}
		sh.users.Set(int64(len(sh.profiles)))
		if e.spill != nil {
			if !newerWins {
				// The payload's users are durable before the cleaner, which
				// needs a shard lock, can remove a record the last checkpoint
				// names for them. A failure degrades the store and fails the
				// checkpoint below.
				_ = e.spillProfilesLocked(sh, sh.residentsLocked(), false)
			}
			bytes, spilled := int64(0), sh.spilled.len()
			for uid, prof := range sh.profiles {
				bytes += int64(prof.sizeEst)
				if _, ok := sh.spilled.get(uid); ok {
					spilled-- // resident over their ref
				}
			}
			sh.residentBytes.Store(bytes)
			adopted += spilled
		}
	}
	if e.spill != nil {
		e.spill.spilledUsers.Set(int64(adopted))
	}
	if st.Population != nil || !topUp {
		e.importPop(st.Population)
	}
	unlock()
	// The imported population can exceed the residency cap; evict back under
	// it (outside the all-locks window — eviction takes one shard at a time).
	if e.spill != nil {
		for _, sh := range e.shards {
			e.enforceResidency(sh)
		}
		if !newerWins {
			e.saveMu.Lock()
			defer e.saveMu.Unlock()
			return e.checkpointLocked()
		}
	}
	return nil
}

// replaceArcLocked swaps one shard's share of the arc r: the resident
// profiles in r go, the payload's (all verified in-range by buildImport) come
// in. Caller holds sh.mu for writing.
func replaceArcLocked(sh *shard, r HashRange, fresh map[string]*Profile) {
	for uid := range sh.profiles {
		if r.Contains(userHash(uid)) {
			delete(sh.profiles, uid)
		}
	}
	maps.Copy(sh.profiles, fresh)
}

// decodeState unwraps (and, when the envelope is present, verifies) a
// snapshot and decodes its JSON payload with encoding/json, enforcing the
// format version: ImportState, ImportStateRange and a shipped snapshot decode
// here, and LoadStateFile on a file written before the state file was a
// checkpoint.
func decodeState(data []byte) (*persistedState, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("%w: empty state file", ErrCorruptState)
	}
	payload, err := unwrapSnapshot(data)
	if err != nil {
		return nil, err
	}
	st := &persistedState{}
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, fmt.Errorf("%w: decode state: %v", ErrCorruptState, err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("%w %d", ErrStateVersion, st.Version)
	}
	return st, nil
}

// eachProfile calls visit with each of the state's profiles, stopping at its
// first error: the decoded JSON's, or a checkpoint's records, each decoded
// into one scratch record visit must not keep. A record that does not decode
// is ErrCorruptState, as eachFrame's damage is.
func (st *persistedState) eachProfile(visit func(pp *persistedProfile) error) error {
	if st.checkpoint == nil {
		for i := range st.Profiles {
			if err := visit(&st.Profiles[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var pp persistedProfile
	return st.eachFrame(st.records, func(payload []byte, off int64) error {
		if err := decodeSpillRecordInto(&pp, payload); err != nil {
			return fmt.Errorf("%w: checkpoint record at offset %d: %v", ErrCorruptState, off, err)
		}
		return visit(&pp)
	})
}

// eachFrame calls visit with each frame of a checkpoint after its header,
// stopping at its first error. Damaged framing, and a count of frames not
// want, the header's count of them, are ErrCorruptState.
func (st *persistedState) eachFrame(want int, visit func(payload []byte, off int64) error) error {
	n := -1 // the header is the first frame
	_, err := seglog.Walk(st.checkpoint, func(payload []byte, off int64, _ int) error {
		if n++; n == 0 {
			return nil
		}
		return visit(payload, off)
	})
	if seglog.IsDamage(err) {
		return fmt.Errorf("%w: checkpoint: %v", ErrCorruptState, err)
	}
	if err == nil && n != want {
		err = fmt.Errorf("%w: checkpoint header counts %d frames after it, the file holds %d", ErrCorruptState, want, n)
	}
	return err
}

// buildImport constructs the per-shard profile maps for the payload's
// profiles. Every profile must hash into want — a payload profile outside the
// declared range means the file does not match what it claims to contain,
// which is a form of corruption, and so is a string too long for a spill
// record (fitsSpillRecord). Activations of rules absent from the rule
// set are dropped (profileFromRecord). With newerWins a profile whose user's
// spill record supersedes it is skipped — the caller then holds every shard
// lock; otherwise the spill index is not read and no lock is needed.
func (e *Engine) buildImport(st *persistedState, want HashRange, newerWins bool) ([]map[string]*Profile, error) {
	fresh := make([]map[string]*Profile, len(e.shards))
	per := (len(st.Profiles) + st.records) / len(e.shards) // one of the two is zero
	for i := range fresh {
		fresh[i] = make(map[string]*Profile, per+per/8+1) // room for a shard above the mean
	}
	err := st.eachProfile(func(pp *persistedProfile) error {
		if pp.UserID == "" {
			return fmt.Errorf("%w: state has profile without user id", ErrCorruptState)
		}
		if !fitsSpillRecord(pp) {
			return fmt.Errorf("%w: profile %.40q… does not fit a spill record (a string over %d bytes, or over %d in all)", ErrCorruptState, pp.UserID, maxSpillStringLen, maxProfileSize)
		}
		if !want.Contains(userHash(pp.UserID)) {
			return fmt.Errorf("%w: profile %q hashes to %08x, outside range %v",
				ErrCorruptState, pp.UserID, userHash(pp.UserID), want)
		}
		si := e.shardIndex(pp.UserID)
		if newerWins {
			if ref, ok := e.shards[si].spilled.get(pp.UserID); ok && ref.supersedes(pp.LastReport, pp.Version) {
				return nil
			}
		}
		fresh[si][pp.UserID] = e.profileFromRecord(pp)
		return nil
	})
	return fresh, err
}
