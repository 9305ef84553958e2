package core

import (
	"bytes"
	"cmp"
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
// checkpoint as a rotating ".bak"; a boot restores the checkpoint and — when
// the primary file is damaged or missing mid-rotation — falls back to the
// backup instead of failing. A crash at any instant (mid-save, mid-rotation,
// or external corruption of the primary) costs at most one save interval of
// learned state, never all of it. Under a residency cap the checkpoint lives
// in the spill directory and indexes the log (spillckpt.go).
//
// A checkpoint is a segment file (internal/seglog): the magic line, one header
// frame — the JSON of the state's envelope, with the count of profiles where
// the profiles were — and one OAKPROF1 record frame per profile, sorted by
// user ID, or under a cap the index frames. Every frame carries its CRC-32C,
// so a torn or flipped file is ErrCorruptState, as is one whose count of
// frames is not its header's. No frame is over seglog.MaxFrame. A file that
// is not a segment is an OAKSNAP2 or legacy JSON state file, which
// LoadStateFile reads once, through decodeState, and the next save rewrites.

// checkpointHeader is a checkpoint's header frame: the state's envelope with
// the count of its profile records in place of the profiles.
type checkpointHeader struct {
	persistedState
	Profiles int `json:"profiles"`
	Index    int `json:"index,omitempty"` // index frames, under a cap
}

// encodeCheckpoint is the checkpoint of st, a whole-ring state: its profiles
// as records, then the index frames of a capped engine. A frame over
// seglog.MaxFrame, which seglog.Walk would refuse, is an error, so no save
// installs a file no load reads.
func encodeCheckpoint(st *persistedState, index []byte, frames int) ([]byte, error) {
	header, err := json.Marshal(checkpointHeader{persistedState: *st, Profiles: len(st.Profiles), Index: frames})
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
	return append(b, index...), nil
}

// decodeCheckpoint reads a checkpoint's header frame. The frames after it are
// read, checked and counted against the header as they are used (eachFrame).
func decodeCheckpoint(data []byte) (*persistedState, error) {
	var hdr checkpointHeader
	read := errors.New("checkpoint header read") // stops the walk after the header
	_, err := seglog.Walk(data, func(payload []byte, _ int64, _ int) error {
		return cmp.Or(json.Unmarshal(payload, &hdr), read)
	})
	switch {
	case err == nil:
		return nil, fmt.Errorf("%w: checkpoint without a header", ErrCorruptState)
	case !errors.Is(err, read):
		return nil, fmt.Errorf("%w: checkpoint header: %v", ErrCorruptState, err)
	case hdr.Version != stateVersion:
		return nil, fmt.Errorf("%w %d", ErrStateVersion, hdr.Version)
	case hdr.Profiles < 0 || hdr.Index < 0:
		return nil, fmt.Errorf("%w: checkpoint header counts %d profiles, %d index frames", ErrCorruptState, hdr.Profiles, hdr.Index)
	}
	st := &hdr.persistedState
	st.checkpoint, st.records, st.index = data, hdr.Profiles, hdr.Index
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

// SaveStateFile persists the engine's state crash-safely. Without a residency
// cap the checkpoint — every profile, the guard and the population sections —
// goes to path. Under a cap it goes to the spill directory (checkpointLocked),
// and path and its backup, which hold state only in a directory written
// before the checkpoint moved there, are removed once it is durable. Saves run
// one at a time.
func (e *Engine) SaveStateFile(path string) error {
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	if e.spill != nil {
		err := e.checkpointLocked()
		if err == nil && filepath.Clean(path) != filepath.Join(e.spill.cfg.Dir, checkpointName) {
			e.fs.Remove(path)
			e.fs.Remove(path + BackupSuffix)
		}
		return err
	}
	st, err := e.collectState(HashRange{}, false)
	var data []byte
	if err == nil {
		data, err = encodeCheckpoint(st, nil, 0)
	}
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return e.installCheckpoint(path, data)
}

// installCheckpoint is the one writer of checkpoints: data goes to
// path+".tmp" and is fsynced, so a crash mid-write never touches the live
// file; the current file is rotated to path+BackupSuffix if this engine loaded
// it cleanly or installed it itself (after a boot from the backup the damaged
// primary is overwritten instead); then the temp file is renamed over path
// and the directory fsynced. Paths are compared after filepath.Clean: give
// SaveStateFile the path given to LoadStateFile, or the first save keeps the
// old backup. On any failure the temp file is removed. A crash between the
// renames leaves only the backup, which a boot recovers from.
func (e *Engine) installCheckpoint(path string, data []byte) error {
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
	return nil
}

// LoadStateFile restores engine state saved by SaveStateFile. A missing
// file with no backup is a fresh deployment, not an error. A damaged
// primary (torn write, checksum mismatch, undecodable record) falls back
// to the rotating backup — counting one state recovery in the engine's
// metrics — and only fails if the backup is unusable too. The returned
// StateSource says which file actually populated the engine.
//
// Under a cap NewEngine has booted from the spill directory's checkpoint or
// its backup, if either was usable, and LoadStateFile reads nothing and says
// which. Otherwise path is a state file from before the checkpoint moved into
// the spill directory, read once: a profile is installed only where the log
// holds no newer record of its user (spillRef.supersedes).
func (e *Engine) LoadStateFile(path string) (StateSource, error) {
	if st := e.spill; st != nil && st.recovered.checkpoint != "" {
		return e.stateSource.Load().(StateSource), nil
	}
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
		err = e.importDecoded(HashRange{}, st, true, false)
		if err == nil {
			e.lastLoad.Store(&BootStatus{Load: time.Since(start), Migrated: migrated})
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
	// QuarantinedSegments counts segments out of service for damage, now.
	QuarantinedSegments int
	// Recover is how long the segment replay took, Load the LoadStateFile
	// call: read, checksum, decode, merge and any eviction back under the cap.
	Recover, Load time.Duration
	// Migrated says the state file was not a checkpoint but an OAKSNAP2 or
	// legacy JSON file, read through encoding/json; the next save rewrites it.
	Migrated bool
	// Checkpoint is the spill directory's checkpoint, or its backup, that the
	// replay took the guard, the population and the index from; empty if none.
	// IndexAdopted counts the refs it took from the index; Checksummed is the
	// record bytes it read and checksummed, Decoded the part of them it decoded
	// record by record. IndexFallback says why it adopted no index, and so
	// decoded every record ("no checkpoint", a check the index failed).
	Checkpoint           string
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
		bs.Recover, bs.Checkpoint = r.took, r.checkpoint
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
