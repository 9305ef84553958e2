package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"oak/internal/origin"
)

// Health probing: every probe cycle GETs each backend's /oak/v1/healthz.
// Success resets the failure streak and (unless an operator pinned the
// backend draining) restores it to healthy — a node that comes back is
// readmitted automatically. Consecutive failures walk the state machine
// down: FailThreshold → unhealthy, DrainThreshold → draining,
// DeadThreshold → dead.

// getStatus GETs one of a backend's JSON status bodies under the probe
// timeout and decodes it into v. Any answer but 200 is an error.
func (g *Gateway) getStatus(b *backend, path string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	rep, err := g.call(ctx, b.urlFor(&url.URL{Path: path}), http.MethodGet, nil, nil, maxStatusBytes)
	if err != nil {
		return err
	}
	defer rep.release()
	if rep.status != http.StatusOK {
		return fmt.Errorf("%s status %d", path, rep.status)
	}
	if err := json.Unmarshal(rep.body, v); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// noteProbe applies one probe outcome to the backend's state machine,
// returning the transition (old != new) for logging. hz is kept only when
// err is nil.
func (g *Gateway) noteProbe(b *backend, hz *origin.HealthzResponse, err error) (old, now BackendState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old = b.state
	if err == nil {
		b.fails = 0
		b.lastErr = ""
		b.healthz = hz
		b.lastSeen = time.Now()
		if !b.drained {
			b.state = StateHealthy
		} else {
			b.state = StateDraining
		}
		return old, b.state
	}
	b.fails++
	b.lastErr = err.Error()
	switch {
	case b.fails >= g.cfg.DeadThreshold:
		b.state = StateDead
	case b.fails >= g.cfg.DrainThreshold || b.drained:
		b.state = StateDraining
	case b.fails >= g.cfg.FailThreshold:
		b.state = StateUnhealthy
	}
	return old, b.state
}

// ProbeOnce probes every backend (and the standby) once, synchronously.
// The background loop calls it on ProbeInterval; tests call it directly
// for deterministic state-machine transitions.
func (g *Gateway) ProbeOnce() {
	for _, b := range g.all() {
		hz := new(origin.HealthzResponse)
		err := g.getStatus(b, origin.HealthzPathV1, hz)
		if old, now := g.noteProbe(b, hz, err); old != now {
			g.logf("gateway: backend %s %s -> %s (%v)", b.addr, old, now, err)
		}
	}
	g.probeCycles.Inc()
}

// Drain pins backend i at draining: it stops taking traffic but keeps
// being polled for snapshots — the operator path ahead of a planned
// replacement. Out-of-range indexes are ignored.
func (g *Gateway) Drain(i int) {
	if i < 0 || i >= len(g.backends) {
		return
	}
	b := g.backends[i]
	b.mu.Lock()
	b.drained = true
	if b.state != StateDead {
		b.state = StateDraining
	}
	b.mu.Unlock()
	g.logf("gateway: backend %s drained by operator", b.addr)
}

// Undrain releases an operator drain; the next successful probe restores
// the backend to healthy.
func (g *Gateway) Undrain(i int) {
	if i < 0 || i >= len(g.backends) {
		return
	}
	b := g.backends[i]
	b.mu.Lock()
	b.drained = false
	b.mu.Unlock()
}

// BackendStates reports each backend's current state, in backend order
// (the standby, when configured, is not included).
func (g *Gateway) BackendStates() []BackendState {
	out := make([]BackendState, len(g.backends))
	for i, b := range g.backends {
		out[i], _, _, _ = b.snapshotState()
	}
	return out
}
