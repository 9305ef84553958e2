package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"oak/internal/seglog"
)

// Crash-safe state files: SaveStateFile writes checksummed snapshots via
// the classic tmp + fsync + rename dance and keeps the previous good
// snapshot as a rotating ".bak"; LoadStateFile restores the snapshot and —
// when the primary file is damaged or missing mid-rotation — falls back to
// the backup instead of failing boot. Together they guarantee that a crash
// at any instant (mid-save, mid-rotation, or external corruption of the
// primary) costs at most one save interval of learned state, never all of
// it. On an engine with the spill tier the file is a checkpoint of the
// resident set, which means something only beside its segment directory: the
// spilled users live in the log alone (spill.go, durability contract).

// BackupSuffix is appended to a state file's path to name the rotating
// last-good snapshot SaveStateFile keeps.
const BackupSuffix = ".bak"

// StateSource says where LoadStateFile got the engine's state from.
type StateSource string

const (
	// StateFresh: neither the snapshot nor its backup existed — a fresh
	// deployment.
	StateFresh StateSource = "fresh"
	// StateSnapshot: the primary snapshot file loaded cleanly.
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
//  1. the checkpoint — ExportSnapshot's envelope over the resident profiles,
//     the guard and the population sections, which without the spill tier is
//     ExportSnapshot byte for byte — is written to path+".tmp" and fsynced,
//     so a crash mid-write never touches the live file. It reads no spill
//     record;
//  2. the current snapshot is rotated to path+BackupSuffix — if it is known
//     to be good: this engine loaded it cleanly or installed it itself. After
//     a boot from the backup the damaged primary is overwritten instead, so
//     the one good snapshot stays the backup. Paths are compared after
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
	payload, err := e.exportStateRange(HashRange{}, false)
	if err != nil {
		return fmt.Errorf("engine: export snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := seglog.WriteFileSync(e.fs, tmp, wrapSnapshot(payload)); err != nil {
		e.fs.Remove(tmp)
		return fmt.Errorf("engine: write snapshot: %w", err)
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
		return fmt.Errorf("engine: install snapshot: %w", err)
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
// snapshot with no backup is a fresh deployment, not an error. A damaged
// primary (torn write, checksum mismatch, undecodable payload) falls back
// to the rotating backup — counting one state recovery in the engine's
// metrics — and only fails if the backup is unusable too. The returned
// StateSource says which file actually populated the engine.
func (e *Engine) LoadStateFile(path string) (StateSource, error) {
	// Boot imports merge newer-wins with recovered spill records: a profile
	// spilled (and fsynced) after the snapshot was saved survives the
	// import, so a kill between spill and the next SaveStateFile loses no
	// acknowledged state. See importRange.
	start := time.Now()
	boot := func(data []byte) error {
		decodeStart := time.Now()
		st, err := decodeState(data)
		if err != nil {
			return err
		}
		decode := time.Since(decodeStart)
		n, err := e.importDecoded(HashRange{}, st, true, false)
		if err == nil {
			e.lastLoad.Store(&BootStatus{ImportCounts: n, Load: time.Since(start), Decode: decode, DecodeFallback: st.fallback})
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
	// install renames, in which case the backup holds the last good snapshot.
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
			return "", fmt.Errorf("engine: snapshot and backup both unusable: %w (backup: %v)", primaryErr, ierr)
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
	// Decode is the part of Load spent on the payload's JSON.
	Recover, Load, Decode time.Duration
	// DecodeFallback is empty when the payload was read by the state schema's
	// own reader, as every file the engine writes is. Otherwise encoding/json
	// decoded it, several times slower, and this names the first construct
	// the fast reader would not take (decodeState has the rule).
	DecodeFallback string
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
// times it was restored from somewhere other than the primary snapshot file:
// the rotating backup (damaged or missing primary) or a shipped snapshot (node
// replacement). An engine that never loaded a state file reads as StateFresh.
func (e *Engine) StateStatus() (StateSource, uint64) {
	src, _ := e.stateSource.Load().(StateSource)
	if src == "" {
		src = StateFresh
	}
	return src, e.metrics.stateRecoveries.Value()
}
