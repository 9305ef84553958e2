package origin

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"oak/internal/core"
)

// Cluster administration endpoints. Like the audit and metrics endpoints
// they are operator-facing: deployments must restrict access to them. They
// are the server half of the cluster gateway's control plane: snapshot
// shipping for node replacement, and the quarantine/degrade verbs the
// gateway uses to broadcast one node's discovery fleet-wide.
const (
	// StatePathV1 exports (GET) and imports (POST) the engine's checksummed
	// OAKSNAP2 snapshot over HTTP. Optional ?lo=&hi= query parameters (both
	// or neither, 32-bit values) restrict the operation to one arc of the
	// user-hash ring: a range GET exports only the arc's profiles, a range
	// POST replaces only the arc. A whole POST marks the node's state
	// source as "shipped" — it was rehydrated from another node.
	StatePathV1 = V1Prefix + "/state"
	// GuardQuarantinePathV1 force-opens a provider's breaker and rolls back
	// its activations (POST ?provider=). 404 without WithGuard.
	GuardQuarantinePathV1 = V1Prefix + "/guard/quarantine"
	// GuardReleasePathV1 force-closes a provider's breaker (POST
	// ?provider=). 404 without WithGuard.
	GuardReleasePathV1 = V1Prefix + "/guard/release"
	// PopulationDegradePathV1 manually marks a provider degraded (POST
	// ?provider=). 404 without WithSynthesis.
	PopulationDegradePathV1 = V1Prefix + "/population/degrade"
	// PopulationClearPathV1 clears a provider's degraded episode (POST
	// ?provider=). 404 without WithSynthesis.
	PopulationClearPathV1 = V1Prefix + "/population/clear"
)

// maxStateBytes bounds POSTed snapshots. State files scale with the user
// population, so the bound is far above the report bounds — it exists to
// stop a runaway body, not to police legitimate snapshots.
const maxStateBytes = 256 << 20

// stateRange parses the optional ?lo=&hi= pair into a HashRange. Returns
// (whole-space range, false, nil) when neither parameter is present; one
// without the other, or an unparseable value, is an error.
func stateRange(r *http.Request) (core.HashRange, bool, error) {
	q := r.URL.Query()
	loS, hiS := q.Get("lo"), q.Get("hi")
	if loS == "" && hiS == "" {
		return core.HashRange{}, false, nil
	}
	if loS == "" || hiS == "" {
		return core.HashRange{}, false, errors.New("lo and hi must be given together")
	}
	lo, err := strconv.ParseUint(loS, 0, 32)
	if err != nil {
		return core.HashRange{}, false, fmt.Errorf("bad lo: %v", err)
	}
	hi, err := strconv.ParseUint(hiS, 0, 32)
	if err != nil {
		return core.HashRange{}, false, fmt.Errorf("bad hi: %v", err)
	}
	return core.HashRange{Lo: uint32(lo), Hi: uint32(hi)}, true, nil
}

// handleState serves the snapshot-shipping endpoint: GET exports the
// engine's OAKSNAP2 snapshot (optionally one hash-ring arc), POST imports
// one. A whole-snapshot POST is the node-replacement path and flips the
// engine's state source to "shipped"; a range POST splices the arc in
// without touching the rest of the population or the state source.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	rng, ranged, err := stateRange(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		var data []byte
		var eerr error
		if ranged {
			data, eerr = s.engine.ExportSnapshotRange(rng)
		} else {
			data, eerr = s.engine.ExportSnapshot()
		}
		if eerr != nil {
			http.Error(w, eerr.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data)
	case http.MethodPost:
		body := stageBody(w, r, maxStateBytes, "snapshot too large")
		if body == nil {
			return
		}
		// The import decodes the snapshot free of the body before it returns.
		defer body.Release()
		var ierr error
		if ranged {
			ierr = s.engine.ImportStateRange(rng, body.Bytes())
		} else {
			ierr = s.engine.ImportShippedState(body.Bytes())
		}
		switch {
		case ierr == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(ierr, core.ErrCorruptState), errors.Is(ierr, core.ErrStateVersion):
			http.Error(w, ierr.Error(), http.StatusBadRequest)
		default:
			http.Error(w, ierr.Error(), http.StatusInternalServerError)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// controlProvider validates a POST ?provider= control request, returning
// the provider name or "" after writing the error response.
func controlProvider(w http.ResponseWriter, r *http.Request, enabled bool, subsystem string) string {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return ""
	}
	if !enabled {
		// Mirror the population endpoint's behaviour: a subsystem the engine
		// was built without does not exist on the wire.
		http.Error(w, subsystem+" not enabled", http.StatusNotFound)
		return ""
	}
	p := r.URL.Query().Get("provider")
	if p == "" {
		http.Error(w, "provider parameter required", http.StatusBadRequest)
		return ""
	}
	return p
}

// handleGuardQuarantine force-opens a provider's breaker and rolls back its
// activations — the receiving half of the gateway's breaker broadcast.
func (s *Server) handleGuardQuarantine(w http.ResponseWriter, r *http.Request) {
	_, guarded := s.engine.GuardStatus()
	p := controlProvider(w, r, guarded, "guard")
	if p == "" {
		return
	}
	s.engine.QuarantineProvider(p)
	w.WriteHeader(http.StatusNoContent)
}

// handleGuardRelease force-closes a provider's breaker.
func (s *Server) handleGuardRelease(w http.ResponseWriter, r *http.Request) {
	_, guarded := s.engine.GuardStatus()
	p := controlProvider(w, r, guarded, "guard")
	if p == "" {
		return
	}
	s.engine.ReleaseProvider(p)
	w.WriteHeader(http.StatusNoContent)
}

// handlePopulationDegrade manually marks a provider degraded — the
// receiving half of the gateway's degraded-episode broadcast.
func (s *Server) handlePopulationDegrade(w http.ResponseWriter, r *http.Request) {
	_, enabled := s.engine.PopulationStatus()
	p := controlProvider(w, r, enabled, "population detection")
	if p == "" {
		return
	}
	s.engine.MarkDegraded(p)
	w.WriteHeader(http.StatusNoContent)
}

// handlePopulationClear clears a provider's degraded episode.
func (s *Server) handlePopulationClear(w http.ResponseWriter, r *http.Request) {
	_, enabled := s.engine.PopulationStatus()
	p := controlProvider(w, r, enabled, "population detection")
	if p == "" {
		return
	}
	s.engine.ClearDegraded(p)
	w.WriteHeader(http.StatusNoContent)
}
