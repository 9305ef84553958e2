package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
	"oak/internal/wire"
)

// OAKPROF1 is the spill tier's binary profile record, in the spirit of the
// OAKRPT1 report wire format: length-prefixed strings and counts as uvarints,
// float64s as raw IEEE-754 bits. Each record is one frame of a segment log
// (internal/seglog), whose CRC-32C is checked before a field is trusted.
//
// Timestamps are encoded as RFC3339Nano strings rather than unix
// nanoseconds: a profile's persisted JSON form carries the wall clock *and*
// the UTC offset, and export byte-identity across resident and spilled
// layouts (the spill tier's core invariant) requires the round trip through
// a segment file to preserve exactly what encoding/json would have written.
// Each payload is one profile:
//
//	userID      string
//	lastReport  time string
//	violations  uvarint count, then per server (sorted): addr string, count uvarint
//	actives     uvarint count, then per rule (sorted by ID):
//	            ruleID string, altIndex uvarint, activatedAt time string,
//	            expiresAt time string, triggerServer string,
//	            triggerDistance float64 bits LE, activations uvarint,
//	            flags byte (bit 0 = synthesized, bit 1 = an epoch follows),
//	            epoch uvarint, non-zero, only with bit 1 (absent = epoch 0)
//	version     uvarint, present only when non-zero: the reports ever applied
//	            to the profile. A record that ends after its activations is
//	            version 0 — every record written before the field existed —
//	            and an explicit 0 is corrupt, so a profile has one encoding.
//
// A record's damage is the log's (seglog.Wire): it quarantines the segment.

// maxSpillStringLen bounds any one string field, so a corrupted length prefix
// cannot demand a gigabyte allocation.
const maxSpillStringLen = 1 << 20

// maxProfileSize bounds a profile's size estimate (estimateSize), which bounds
// its record from above, so every profile's record fits one segment frame.
// Ingest drops a violation or an activation that would take a profile past it
// (Profile.grow).
const maxProfileSize = seglog.MaxFrame

// fitsSpillRecord reports whether pp fits a record: every string within
// maxSpillStringLen and the whole within maxProfileSize. A profile that could
// not be read back from its record is refused on the way in (buildImport), so
// none is ever written.
func fitsSpillRecord(pp *persistedProfile) bool {
	if len(pp.UserID) > maxSpillStringLen {
		return false
	}
	size := profileBaseSize + len(pp.UserID)
	for srv := range pp.Violations {
		if len(srv) > maxSpillStringLen {
			return false
		}
		size += violationEntrySize + len(srv)
	}
	for i := range pp.Active {
		pa := &pp.Active[i]
		if len(pa.RuleID) > maxSpillStringLen || len(pa.TriggerServer) > maxSpillStringLen {
			return false
		}
		size += activeEntrySize + len(pa.RuleID) + len(pa.TriggerServer)
	}
	return size <= maxProfileSize
}

// appendSpillTime appends t in the RFC3339Nano form encoding/json uses, as a
// spill string. The zero time round-trips through "0001-01-01T00:00:00Z".
func appendSpillTime(b []byte, t time.Time) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.AppendFormat(nil, time.RFC3339Nano))))
	return t.AppendFormat(b, time.RFC3339Nano)
}

// spillTime decodes a spill time string: the form appendSpillTime writes for
// a UTC time is read where it lies (utcTime), any other through time.Parse.
func spillTime(b []byte) (time.Time, []byte, error) {
	s, rest, err := seglog.Wire.String(b, maxSpillStringLen)
	if err != nil {
		return time.Time{}, nil, err
	}
	if t, ok := utcTime(s); ok {
		return t, rest, nil
	}
	t, err := time.Parse(time.RFC3339Nano, string(s))
	if err != nil {
		return time.Time{}, nil, fmt.Errorf("%w: bad timestamp %q", seglog.ErrCorrupt, s)
	}
	return t, rest, nil
}

// utcTime reads s as time.Parse reads a UTC time in the RFC3339Nano layout,
// "2006-01-02T15:04:05.999999999Z", without making s a string. ok is false
// for any other text, a valid one among them, which time.Parse then reads.
func utcTime(s []byte) (t time.Time, ok bool) {
	const layout = "0000-00-00T00:00:00.000000000" // 0 is a digit; a short fraction's missing ones read 0
	n := len(s) - 1
	if n < 0 || s[n] != 'Z' || n > len(layout) || n != 19 && n < 21 {
		return time.Time{}, false
	}
	var f [7]int // year, month, day, hour, minute, second, nanosecond
	for i, k := 0, 0; i < len(layout); i++ {
		c := byte('0')
		if i < n {
			c = s[i]
		}
		if layout[i] != '0' {
			if k++; i < n && c != layout[i] {
				return time.Time{}, false
			}
		} else if c < '0' || c > '9' {
			return time.Time{}, false
		} else {
			f[k] = f[k]*10 + int(c-'0')
		}
	}
	if f[1] < 1 || f[1] > 12 || f[2] < 1 || f[3] > 23 || f[4] > 59 || f[5] > 59 {
		return time.Time{}, false
	}
	t = time.Date(f[0], time.Month(f[1]), f[2], f[3], f[4], f[5], f[6], time.UTC)
	return t, t.Day() == f[2] // a day past its month's end normalizes
}

// encodeSpillRecord appends the OAKPROF1 payload for one persisted profile.
func encodeSpillRecord(b []byte, pp *persistedProfile) []byte {
	b = wire.AppendString(b, pp.UserID)
	b = appendSpillTime(b, pp.LastReport)

	b = binary.AppendUvarint(b, uint64(len(pp.Violations)))
	srvs := make([]string, 0, len(pp.Violations))
	for srv := range pp.Violations {
		srvs = append(srvs, srv)
	}
	sort.Strings(srvs)
	for _, srv := range srvs {
		b = wire.AppendString(b, srv)
		b = binary.AppendUvarint(b, uint64(pp.Violations[srv]))
	}

	b = binary.AppendUvarint(b, uint64(len(pp.Active)))
	for i := range pp.Active {
		pa := &pp.Active[i]
		b = wire.AppendString(b, pa.RuleID)
		b = binary.AppendUvarint(b, uint64(pa.AltIndex))
		b = appendSpillTime(b, pa.ActivatedAt)
		b = appendSpillTime(b, pa.ExpiresAt)
		b = wire.AppendString(b, pa.TriggerServer)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pa.TriggerDistance))
		b = binary.AppendUvarint(b, uint64(pa.Activations))
		var flags byte
		if pa.Synthesized {
			flags |= 1
		}
		if pa.Epoch != 0 {
			flags |= 2
		}
		b = append(b, flags)
		if pa.Epoch != 0 {
			b = binary.AppendUvarint(b, pa.Epoch)
		}
	}
	if pp.Version != 0 {
		b = binary.AppendUvarint(b, pp.Version)
	}
	return b
}

// decodeSpillRecord decodes one OAKPROF1 payload. The persisted form is the
// same neutral shape ExportState emits and ImportState consumes, so export
// uses the decoded record directly and rehydration resolves it against the
// live rule set exactly like an import would.
func decodeSpillRecord(payload []byte) (*persistedProfile, error) {
	pp := &persistedProfile{}
	if err := decodeSpillRecordInto(pp, payload); err != nil {
		return nil, err
	}
	return pp, nil
}

// decodeSpillRecordInto is decodeSpillRecord into a record the caller owns
// and may hand back for the next payload: every field is overwritten, the
// violations map (made when nil, unless the record has none) and the
// activations' backing array are reused. (An empty activation list leaves a
// reused slice empty, a fresh one nil.) On an error *pp is part old, part new.
// The strings are views of one copy of the payload: a caller keeping one alone
// clones it.
func decodeSpillRecordInto(pp *persistedProfile, payload []byte) error {
	b := payload
	var err error
	var tok []byte
	copied := string(payload)
	str := func(tok []byte) string { // tok lies in payload: its cap says where
		off := cap(payload) - cap(tok)
		return copied[off : off+len(tok)]
	}

	if tok, b, err = seglog.Wire.String(b, maxSpillStringLen); err != nil {
		return fmt.Errorf("user id: %w", err)
	}
	pp.UserID = str(tok)
	if pp.UserID == "" {
		return fmt.Errorf("%w: empty user id", seglog.ErrCorrupt)
	}
	if pp.LastReport, b, err = spillTime(b); err != nil {
		return fmt.Errorf("last report: %w", err)
	}

	nv, b, err := seglog.Wire.Uvarint(b)
	if err != nil {
		return fmt.Errorf("violation count: %w", err)
	}
	if nv > uint64(len(b)) {
		return fmt.Errorf("%w: %d violations in %d bytes", seglog.ErrCorrupt, nv, len(b))
	}
	if pp.Violations == nil && nv > 0 {
		pp.Violations = make(map[string]int, nv)
	} else {
		clear(pp.Violations)
	}
	for i := uint64(0); i < nv; i++ {
		var cnt uint64
		if tok, b, err = seglog.Wire.String(b, maxSpillStringLen); err != nil {
			return fmt.Errorf("violation server: %w", err)
		}
		srv := str(tok)
		if cnt, b, err = seglog.Wire.Uvarint(b); err != nil {
			return fmt.Errorf("violation count for %q: %w", srv, err)
		}
		pp.Violations[srv] = int(cnt)
	}

	na, b, err := seglog.Wire.Uvarint(b)
	if err != nil {
		return fmt.Errorf("activation count: %w", err)
	}
	if na > uint64(len(b)) {
		return fmt.Errorf("%w: %d activations in %d bytes", seglog.ErrCorrupt, na, len(b))
	}
	if na > uint64(cap(pp.Active)) {
		pp.Active = make([]persistedActivation, 0, na)
	}
	pp.Active = pp.Active[:0]
	for i := uint64(0); i < na; i++ {
		var pa persistedActivation
		var alt, acts uint64
		if tok, b, err = seglog.Wire.String(b, maxSpillStringLen); err != nil {
			return fmt.Errorf("rule id: %w", err)
		}
		pa.RuleID = str(tok)
		if alt, b, err = seglog.Wire.Uvarint(b); err != nil {
			return fmt.Errorf("alt index: %w", err)
		}
		pa.AltIndex = int(alt)
		if pa.ActivatedAt, b, err = spillTime(b); err != nil {
			return fmt.Errorf("activated at: %w", err)
		}
		if pa.ExpiresAt, b, err = spillTime(b); err != nil {
			return fmt.Errorf("expires at: %w", err)
		}
		if tok, b, err = seglog.Wire.String(b, maxSpillStringLen); err != nil {
			return fmt.Errorf("trigger server: %w", err)
		}
		pa.TriggerServer = str(tok)
		if len(b) < 8 {
			return fmt.Errorf("%w: trigger distance cut short", seglog.ErrTruncated)
		}
		pa.TriggerDistance = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if acts, b, err = seglog.Wire.Uvarint(b); err != nil {
			return fmt.Errorf("activation counter: %w", err)
		}
		pa.Activations = int(acts)
		if len(b) < 1 {
			return fmt.Errorf("%w: flags cut short", seglog.ErrTruncated)
		}
		flags := b[0]
		b = b[1:]
		pa.Synthesized = flags&1 != 0
		if flags&2 != 0 {
			if pa.Epoch, b, err = seglog.Wire.Uvarint(b); err != nil {
				return fmt.Errorf("epoch: %w", err)
			} else if pa.Epoch == 0 {
				return fmt.Errorf("%w: explicit epoch 0", seglog.ErrCorrupt)
			}
		}
		pp.Active = append(pp.Active, pa)
	}
	pp.Version = 0
	if len(b) != 0 {
		if pp.Version, b, err = seglog.Wire.Uvarint(b); err != nil {
			return fmt.Errorf("version: %w", err)
		}
		if pp.Version == 0 {
			return fmt.Errorf("%w: explicit version 0", seglog.ErrCorrupt)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after record", seglog.ErrCorrupt, len(b))
	}
	return nil
}

// spillRef locates one user's durable record: segment, frame offset and
// length, plus the profile's last-report time and version, which say whether
// the record holds a resident profile's current state (holds). Guarded by the
// owning shard's mu: refs are
// written only under its write lock, and a segment's file is closed only once
// no ref points into it — the cleaner moves each shard's refs out under that
// shard's write lock first, and a shard with no survivor in the segment holds
// no ref into it (compactSegment) — so a reader holding the read lock has a
// valid ref into an open, immutable frame.
type spillRef struct {
	seg *seglog.Segment
	off int64
	ver uint64 // the record's Profile.version; 0 in records older than the field
	// lastSec and lastNsec are the record's last report as an instant: a
	// time.Time would carry a Location pointer.
	lastSec  int64
	lastNsec int32
	n        int32 // frame length; frames are bounded by seglog.MaxFrame
	// active records whether the record carries any activation. A page for a
	// spilled user whose record carries none is the untouched page, decided
	// without reading the disk. (A ref is 48 bytes.)
	active bool
}

// newSpillRef is the ref of the n-byte frame at off holding a record with
// the given activations, last report and version; seg is set once the frame
// has its place in the log.
func newSpillRef(off int64, n int, active bool, last time.Time, ver uint64) spillRef {
	return spillRef{off: off, n: int32(n), active: active, lastSec: last.Unix(), lastNsec: int32(last.Nanosecond()), ver: ver}
}

// holds reports whether the record is a profile's state at the given last
// report and version: only a report changes what a profile derives from
// reports, and it bumps the version (analyzeLocked). An unversioned record
// proves nothing, and a record in a quarantined segment holds nothing.
func (r spillRef) holds(last time.Time, ver uint64) bool {
	return r.ver != 0 && r.ver == ver && r.lastSec == last.Unix() && r.lastNsec == int32(last.Nanosecond()) && !r.seg.Quarantined()
}

// supersedes is the newer-wins rule of LoadStateFile's one read of a state
// file written before the checkpoint moved into the spill directory: does the
// record stand against that file's copy of the user's profile, with the given
// last report and version? A later last report wins; on the same one, the
// copy whose version is not lower, the record on a tie (ingest bumps the
// version as it makes a spilled profile resident). Two unversioned copies with
// one last report prove nothing, and the file's wins. A record in a
// quarantined segment supersedes nothing.
func (r spillRef) supersedes(last time.Time, ver uint64) bool {
	sec, nsec := last.Unix(), int32(last.Nanosecond())
	switch {
	case r.seg.Quarantined():
		return false
	case r.lastSec != sec || r.lastNsec != nsec:
		return r.lastSec > sec || (r.lastSec == sec && r.lastNsec > nsec)
	default:
		return r.ver > 0 && r.ver >= ver
	}
}

// segFrame is one whole record frame and the ref that will point at it:
// ref.off is relative to the buffer the frame was found or built in and
// ref.seg unset until the frame has its place in the log.
type segFrame struct {
	uid string
	ref spillRef
}

// walkSegment is the one reader of whole segments, over seglog.Walk: it
// decodes every frame's record (recordWalk) and says where the last whole
// frame ends, with the walk's error — seglog.ErrTruncated for a torn tail,
// damage otherwise. A record that does not decode is damage too: its frame
// is whole and its checksum holds, so it is not a tear. With live, the rule
// set, it keeps each record's lifts.
func walkSegment(data []byte, live map[string]*rules.Rule) (w recordWalk, end int64, err error) {
	w.size, w.live = len(data), live
	end, err = seglog.Walk(data, w.add)
	return w, end, err
}

// recordWalk is what reading a segment's records found: each decoded frame
// and its ref in log order, and, when live is set, each activation of a live
// rule admitted under a nonzero epoch in a record decoded or read for its
// epochs (liftCovered), which a boot lifts the guard to if that record holds
// its user's ref.
type recordWalk struct {
	size    int              // the bytes walked
	decoded int64            // the bytes of the records decoded
	pp      persistedProfile // one scratch record: a frame keeps four fields of it
	frames  []segFrame
	live    map[string]*rules.Rule
	lifts   []frameLift
}

// frameLift is an activation in the record of uid's frame at off: its pair,
// named by the live rule's own ID, and its epoch.
type frameLift struct {
	uid string
	off int64
	liftPair
	epoch uint64
}

type liftPair struct {
	rule string
	alt  int
}

// add decodes the record of the n-byte frame at off (seglog.Walk's callback).
func (w *recordWalk) add(payload []byte, off int64, n int) error {
	if err := decodeSpillRecordInto(&w.pp, payload); err != nil {
		return fmt.Errorf("%w: frame at offset %d: %v", seglog.ErrCorrupt, off, err)
	}
	if w.frames == nil {
		// Records are much of a size: the first one says how many to expect.
		w.frames = make([]segFrame, 0, (w.size-int(off))/n+1)
	}
	uid := strings.Clone(w.pp.UserID)
	for _, pa := range w.pp.Active {
		if r := w.live[pa.RuleID]; r != nil && pa.Epoch > 0 {
			w.lifts = append(w.lifts, frameLift{uid, off, liftPair{r.ID, pa.AltIndex}, pa.Epoch})
		}
	}
	w.frames = append(w.frames, segFrame{uid: uid, ref: newSpillRef(off, n, len(w.pp.Active) > 0, w.pp.LastReport, w.pp.Version)})
	w.decoded += int64(n)
	return nil
}

// liftCovered keeps the lifts of the record at off, uid's, which is not
// decoded: recordEpochs reads its epochs, copying nothing unless one is kept.
// A record that does not read keeps none, as it is served to no one.
func (w *recordWalk) liftCovered(payload []byte, off int64, uid []byte) {
	n, id := len(w.lifts), ""
	if recordEpochs(payload, func(rule []byte, alt int, epoch uint64) {
		if r := w.live[string(rule)]; r != nil {
			if id == "" {
				id = string(uid)
			}
			w.lifts = append(w.lifts, frameLift{id, off, liftPair{r.ID, alt}, epoch})
		}
	}) != nil {
		w.lifts = w.lifts[:n]
	}
}

// recordEpochs calls fn with the rule ID (a view of payload), alternative and
// epoch of each activation of an OAKPROF1 payload admitted under a nonzero
// epoch, stepping over every other field. Its error is the first field that
// does not read, as decodeSpillRecordInto words it; it reads no timestamp,
// which that decode alone checks.
func recordEpochs(b []byte, fn func(rule []byte, alt int, epoch uint64)) error {
	var err error
	str := func() (tok []byte) {
		if err == nil {
			tok, b, err = seglog.Wire.String(b, maxSpillStringLen)
		}
		return tok
	}
	uvarint := func() (v uint64) {
		if err == nil {
			v, b, err = seglog.Wire.Uvarint(b)
		}
		return v
	}
	skip := func(n int) (tok []byte) {
		if err == nil && len(b) < n {
			err = fmt.Errorf("%w: activation cut short", seglog.ErrTruncated)
		}
		if err == nil {
			tok, b = b[:n], b[n:]
		}
		return tok
	}
	str() // user ID
	str() // last report
	for nv := uvarint(); err == nil && nv > 0; nv-- {
		str()     // server
		uvarint() // its violations
	}
	for na := uvarint(); err == nil && na > 0; na-- {
		rule, alt := str(), uvarint()
		str()     // activated at
		str()     // expires at
		str()     // trigger server
		skip(8)   // trigger distance
		uvarint() // activations
		if flags := skip(1); err == nil && flags[0]&2 != 0 {
			if epoch := uvarint(); err == nil && epoch == 0 {
				err = fmt.Errorf("%w: explicit epoch 0", seglog.ErrCorrupt)
			} else if err == nil {
				fn(rule, int(alt), epoch)
			}
		}
	}
	if err == nil && len(b) != 0 {
		if ver := uvarint(); err == nil && (ver == 0 || len(b) != 0) {
			err = fmt.Errorf("%w: explicit version 0 or bytes after the record", seglog.ErrCorrupt)
		}
	}
	return err
}

// deadAt is the one predicate for an activation that means nothing at now:
// it has lapsed, its rule is not in the engine's rule set, or a trip or
// quarantine has moved its pair's epoch past the one it was admitted under.
// Every reader skips it (ActiveRule.deadAt is its resident form) and ingest
// drops it (pruneDead), so where a profile lives does not show in what it
// serves, exports or counts.
func (e *Engine) deadAt(pa *persistedActivation, now time.Time) bool {
	_, known := e.rulesByID[pa.RuleID]
	return !known || (!pa.ExpiresAt.IsZero() && now.After(pa.ExpiresAt)) ||
		e.epochs.Load().at(pa.RuleID, pa.AltIndex) > pa.Epoch
}

// profileFromRecord is the one conversion from the persisted form to a live
// profile under the engine's rule set, shared by rehydration, the in-place
// serve view and state import so they cannot disagree about what a record
// means. It drops activations of a rule not in the rule set, and keeps a
// lapsed or rolled-back one for the user's next report to drop and count
// (pruneDead), as it would have counted it had the profile stayed resident.
// The profile is not installed anywhere; nothing but the caller refers to it.
// It takes pp's violations map, and leaves pp without one.
func (e *Engine) profileFromRecord(pp *persistedProfile) *Profile {
	prof := &Profile{UserID: pp.UserID, violations: pp.Violations, lastReport: pp.LastReport, version: pp.Version}
	pp.Violations = nil
	for srv, n := range prof.violations {
		if n <= 0 {
			delete(prof.violations, srv)
		}
	}
	if len(pp.Active) > 0 {
		prof.active = make(map[string]*ActiveRule, len(pp.Active))
	}
	for i := range pp.Active {
		pa := &pp.Active[i]
		rule := e.rulesByID[pa.RuleID]
		if rule == nil {
			continue
		}
		prof.active[pa.RuleID] = &ActiveRule{
			Rule:            rule,
			AltIndex:        pa.AltIndex,
			ActivatedAt:     pa.ActivatedAt,
			ExpiresAt:       pa.ExpiresAt,
			TriggerServer:   pa.TriggerServer,
			TriggerDistance: pa.TriggerDistance,
			Activations:     pa.Activations,
			Synthesized:     pa.Synthesized,
			Epoch:           pa.Epoch,
		}
	}
	prof.sizeEst = prof.estimateSize()
	return prof
}
