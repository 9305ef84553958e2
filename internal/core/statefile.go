package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"oak/internal/seglog"
	"oak/internal/wire"
)

// Crash-safe state files: SaveStateFile writes checksummed checkpoints via
// the classic tmp + fsync + rename dance and keeps the previous good
// checkpoint as a rotating ".bak"; LoadStateFile restores the checkpoint and —
// when the primary file is damaged or missing mid-rotation — falls back to
// the backup instead of failing boot. Together they guarantee that a crash
// at any instant (mid-save, mid-rotation, or external corruption of the
// primary) costs at most one save interval of learned state, never all of
// it. On an engine with the spill tier the file is a checkpoint of the
// resident set, which means something only beside its segment directory: the
// spilled users live in the log alone (spill.go, durability contract).
//
// A checkpoint is a segment file (internal/seglog) of the spill tier's own
// records: the magic line, one header frame — the JSON of the state's
// envelope, with the count of profiles where the profiles were — and one
// OAKPROF1 record frame per profile, sorted by user ID. Every frame carries
// its CRC-32C, so a torn or flipped file is ErrCorruptState, as is one whose
// count of records is not its header's. No frame is over seglog.MaxFrame: a
// profile's record is bounded where it grows (maxProfileSize), and a save
// whose header is over it fails. A file that is not a segment is an
// OAKSNAP2 or legacy JSON state file, which LoadStateFile reads once, through
// decodeState, and the next save rewrites as a checkpoint.

// checkpointHeader is a checkpoint's header frame: the state's envelope with
// the count of its profile records in place of the profiles.
type checkpointHeader struct {
	persistedState
	Profiles int `json:"profiles"`
}

// encodeCheckpoint is the checkpoint of st, a whole-ring state. A frame over
// seglog.MaxFrame, which seglog.Walk would refuse, is an error, so no save
// installs a file no load reads.
func encodeCheckpoint(st *persistedState) ([]byte, error) {
	header, err := json.Marshal(checkpointHeader{persistedState: *st, Profiles: len(st.Profiles)})
	if err != nil {
		return nil, err
	}
	b, biggest := wire.AppendFrame([]byte(seglog.Magic), header), len(header)
	var rec []byte
	for i := range st.Profiles {
		rec = encodeSpillRecord(rec[:0], &st.Profiles[i])
		b, biggest = wire.AppendFrame(b, rec), max(biggest, len(rec))
	}
	if biggest > seglog.MaxFrame {
		return nil, fmt.Errorf("a checkpoint frame of %d bytes is over a frame's %d", biggest, seglog.MaxFrame)
	}
	return b, nil
}

// errHeaderRead stops decodeCheckpoint's walk after the header frame.
var errHeaderRead = errors.New("checkpoint header read")

// decodeCheckpoint reads a checkpoint's header frame. The records after it are
// walked, checked and counted against the header as they are imported
// (eachProfile).
func decodeCheckpoint(data []byte) (*persistedState, error) {
	var hdr checkpointHeader
	_, err := seglog.Walk(data, func(payload []byte, _ int64, _ int) error {
		if err := json.Unmarshal(payload, &hdr); err != nil {
			return err
		}
		return errHeaderRead
	})
	switch {
	case err == nil:
		return nil, fmt.Errorf("%w: checkpoint without a header", ErrCorruptState)
	case !errors.Is(err, errHeaderRead):
		return nil, fmt.Errorf("%w: checkpoint header: %v", ErrCorruptState, err)
	case hdr.Version != stateVersion:
		return nil, fmt.Errorf("%w %d", ErrStateVersion, hdr.Version)
	case hdr.Profiles < 0:
		return nil, fmt.Errorf("%w: checkpoint header counts %d profiles", ErrCorruptState, hdr.Profiles)
	}
	st := &hdr.persistedState
	st.checkpoint, st.records = data, hdr.Profiles
	return st, nil
}

// BackupSuffix is appended to a state file's path to name the rotating
// last-good state file SaveStateFile keeps.
const BackupSuffix = ".bak"

// StateSource says where LoadStateFile got the engine's state from.
type StateSource string

const (
	// StateFresh: neither the state file nor its backup existed — a fresh
	// deployment.
	StateFresh StateSource = "fresh"
	// StateSnapshot: the primary state file loaded cleanly.
	StateSnapshot StateSource = "snapshot"
	// StateBackup: the primary was damaged or missing and state was
	// recovered from the rotating backup.
	StateBackup StateSource = "backup"
	// StateShipped: state was rehydrated from a snapshot shipped by
	// another node (cluster node replacement), not from this node's own
	// files. Set by ImportShippedState, never by LoadStateFile.
	StateShipped StateSource = "shipped"
)

// SaveStateFile persists the engine's state to path crash-safely:
//
//  1. the checkpoint — the resident profiles, the guard and the population
//     sections, which without the spill tier is the whole state — is written
//     to path+".tmp" and fsynced, so a crash mid-write never touches the live
//     file. It reads no spill record;
//  2. the current file is rotated to path+BackupSuffix — if it is known
//     to be good: this engine loaded it cleanly or installed it itself. After
//     a boot from the backup the damaged primary is overwritten instead, so
//     the one good checkpoint stays the backup. Paths are compared after
//     filepath.Clean, so "./state.json" is "state.json", but a relative and
//     an absolute spelling of one file are two paths: give SaveStateFile the
//     path given to LoadStateFile, or the first save keeps the old backup;
//  3. the temp file is renamed over path (atomic on POSIX filesystems).
//
// On any failure the temp file is removed rather than leaked. A crash
// between steps 2 and 3 leaves only the backup; LoadStateFile recovers from
// it. Saves run one at a time.
func (e *Engine) SaveStateFile(path string) error {
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	st, err := e.collectState(HashRange{}, false)
	var data []byte
	if err == nil {
		data, err = encodeCheckpoint(st)
	}
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := seglog.WriteFileSync(e.fs, tmp, data); err != nil {
		e.fs.Remove(tmp)
		return fmt.Errorf("engine: write checkpoint: %w", err)
	}
	clean := filepath.Clean(path)
	if good := e.goodPrimary.Load(); good != nil && *good == clean {
		if err := e.fs.Rename(path, path+BackupSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
			e.fs.Remove(tmp)
			return fmt.Errorf("engine: rotate backup: %w", err)
		}
	}
	if err := e.fs.Rename(tmp, path); err != nil {
		e.fs.Remove(tmp)
		return fmt.Errorf("engine: install checkpoint: %w", err)
	}
	e.goodPrimary.Store(&clean)
	seglog.SyncDir(e.fs, filepath.Dir(path))
	if e.spill != nil {
		// The index is a cache of the log: without it the next boot decodes
		// every record, so a failure to write it fails nothing.
		if err := e.saveSpillIndex(); err != nil && e.logf != nil {
			e.logf("core: spill index not written (the next boot decodes the whole log): %v", err)
		}
	}
	return nil
}

// LoadStateFile restores engine state saved by SaveStateFile. A missing
// file with no backup is a fresh deployment, not an error. A damaged
// primary (torn write, checksum mismatch, undecodable record) falls back
// to the rotating backup — counting one state recovery in the engine's
// metrics — and only fails if the backup is unusable too. The returned
// StateSource says which file actually populated the engine.
func (e *Engine) LoadStateFile(path string) (StateSource, error) {
	// Boot imports merge newer-wins with recovered spill records: a profile
	// spilled (and fsynced) after the checkpoint was saved survives the
	// import, so a kill between spill and the next SaveStateFile loses no
	// acknowledged state. See importRange.
	start := time.Now()
	boot := func(data []byte) error {
		migrated := !bytes.HasPrefix(data, []byte(seglog.Magic))
		decode := decodeCheckpoint
		if migrated {
			decode = decodeState
		}
		st, err := decode(data)
		if err != nil {
			return err
		}
		n, err := e.importDecoded(HashRange{}, st, true, false)
		if err == nil {
			e.lastLoad.Store(&BootStatus{ImportCounts: n, Load: time.Since(start), Migrated: migrated})
		}
		return err
	}

	data, err := seglog.ReadFile(e.fs, path)
	var primaryErr error
	switch {
	case err == nil:
		if primaryErr = boot(data); primaryErr == nil {
			e.stateSource.Store(StateSnapshot)
			clean := filepath.Clean(path)
			e.goodPrimary.Store(&clean)
			return StateSnapshot, nil
		}
		if !errors.Is(primaryErr, ErrCorruptState) && !errors.Is(primaryErr, ErrStateVersion) {
			return "", primaryErr
		}
	case !errors.Is(err, fs.ErrNotExist):
		return "", fmt.Errorf("engine: read state: %w", err)
	}
	// Try the backup: the primary is damaged, or it is missing — a fresh
	// deployment, or a crash landed between SaveStateFile's rotation and
	// install renames, in which case the backup holds the last good checkpoint.
	bdata, berr := seglog.ReadFile(e.fs, path+BackupSuffix)
	switch {
	case berr != nil && primaryErr != nil:
		// No usable backup: surface the original corruption, not the
		// backup's absence.
		return "", fmt.Errorf("engine: import state (no backup to recover from): %w", primaryErr)
	case errors.Is(berr, fs.ErrNotExist):
		e.stateSource.Store(StateFresh)
		return StateFresh, nil
	case berr != nil:
		return "", fmt.Errorf("engine: read state backup: %w", berr)
	}
	if ierr := boot(bdata); ierr != nil {
		if primaryErr != nil {
			return "", fmt.Errorf("engine: state file and backup both unusable: %w (backup: %v)", primaryErr, ierr)
		}
		return "", fmt.Errorf("engine: import state backup: %w", ierr)
	}
	e.metrics.stateRecoveries.Inc()
	e.stateSource.Store(StateBackup)
	return StateBackup, nil
}

// BootStatus says what starting the engine did with its durable state: the
// replay of the segment directory (NewEngine) and the last LoadStateFile.
type BootStatus struct {
	// ImportCounts is the state file's profiles against the segment log's.
	ImportCounts
	// QuarantinedSegments counts segments out of service for damage, now.
	QuarantinedSegments int
	// Recover is how long the segment replay took, Load the LoadStateFile
	// call: read, checksum, decode, merge and any eviction back under the cap.
	Recover, Load time.Duration
	// Migrated says the state file was not a checkpoint but an OAKSNAP2 or
	// legacy JSON file, read through encoding/json; the next save rewrites it.
	Migrated bool
	// IndexAdopted counts the refs the segment replay took from the spill
	// index the last checkpoint wrote; Checksummed is the record bytes it
	// read and checksummed, Decoded the part of them it decoded record by
	// record. IndexFallback says why it adopted no index, and so decoded every
	// record ("no index", a check the index failed); empty when it adopted one.
	IndexAdopted         int
	Checksummed, Decoded int64
	IndexFallback        string
}

// BootStatus reports what boot did; the load half is zero until a
// LoadStateFile has succeeded, the spill half on engines without the tier.
func (e *Engine) BootStatus() BootStatus {
	var bs BootStatus
	if p := e.lastLoad.Load(); p != nil {
		bs = *p
	}
	if st := e.spill; st != nil {
		r := st.recovered
		bs.Recover = r.took
		bs.QuarantinedSegments = len(st.log.Quarantined())
		bs.IndexAdopted, bs.Checksummed, bs.Decoded, bs.IndexFallback = r.adopted, r.checked, r.decoded, r.fallback
	}
	return bs
}

// ImportShippedState restores a snapshot shipped from another node — the
// cluster node-replacement path. Beyond ImportState it marks the engine's
// state source as StateShipped and counts a state recovery, so healthz
// shows that this process's state was rebuilt from somewhere other than
// its own files.
func (e *Engine) ImportShippedState(data []byte) error {
	if err := e.ImportState(data); err != nil {
		return err
	}
	e.metrics.stateRecoveries.Inc()
	e.stateSource.Store(StateShipped)
	return nil
}

// StateStatus reports where the engine's state last came from and how many
// times it was restored from somewhere other than the primary state file:
// the rotating backup (damaged or missing primary) or a shipped snapshot (node
// replacement). An engine that never loaded a state file reads as StateFresh.
func (e *Engine) StateStatus() (StateSource, uint64) {
	src, _ := e.stateSource.Load().(StateSource)
	if src == "" {
		src = StateFresh
	}
	return src, e.metrics.stateRecoveries.Value()
}
