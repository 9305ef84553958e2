package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"oak/internal/bodybuf"
	"oak/internal/core"
	"oak/internal/origin"
)

// Snapshot shipping: the gateway periodically polls each live backend's
// checksummed OAKSNAP2 snapshot (GET /oak/v1/state) and keeps the latest
// per backend. When a backend dies, Replace ships that snapshot to a fresh
// process — the replacement rehydrates the dead node's learned state
// without ever touching the dead node's disk. A backend that died before
// the first poll is instead seeded with the standby's per-user-range
// export: the reports the standby absorbed while covering the dead range.

// Cluster administration endpoints served by the gateway itself (v1-only).
const (
	// ClusterPathV1 serves the detailed fleet view: per-backend state
	// machine position, last healthz, snapshot freshness, range ownership.
	ClusterPathV1 = origin.V1Prefix + "/cluster"
	// ClusterReplacePathV1 replaces a dead backend (POST
	// ?backend=<index>&addr=<base-url>).
	ClusterReplacePathV1 = origin.V1Prefix + "/cluster/replace"
	// ClusterDrainPathV1 pins a backend draining ahead of planned
	// replacement (POST ?backend=<index>); ?undrain=1 releases it.
	ClusterDrainPathV1 = origin.V1Prefix + "/cluster/drain"
)

// stateURL is the state endpoint under t, restricted to one hash-ring arc
// when rng is set.
func stateURL(t *target, rng *core.HashRange) *url.URL {
	u := &url.URL{Path: origin.StatePathV1}
	if rng != nil {
		u.RawQuery = fmt.Sprintf("lo=%d&hi=%d", rng.Lo, rng.Hi)
	}
	return t.urlFor(u)
}

// fetchState GETs a backend's snapshot, optionally restricted to one
// hash-ring arc. A snapshot of more than maxForwardBytes is an error, never
// a prefix. The staged bytes are returned as they stand and never released:
// a stored snapshot outlives every exchange.
func (g *Gateway) fetchState(b *backend, rng *core.HashRange) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ForwardTimeout)
	defer cancel()
	rep, err := g.call(ctx, stateURL(&b.target, rng), http.MethodGet, nil, nil, maxForwardBytes)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		rep.release()
		return nil, fmt.Errorf("state export status %d", rep.status)
	}
	return rep.body, nil
}

// postState POSTs a snapshot to a node (to is not necessarily a tracked
// backend — the replacement target is not in the fleet yet). A nil range
// ships the whole snapshot (the receiver marks its state source "shipped");
// a range splices one arc in.
func (g *Gateway) postState(ctx context.Context, to *target, rng *core.HashRange, data []byte) error {
	h := http.Header{"Content-Type": {"application/octet-stream"}}
	rep, err := g.call(ctx, stateURL(to, rng), http.MethodPost, h, data, maxAckBytes)
	if err != nil {
		return err
	}
	defer rep.release()
	if rep.status != http.StatusNoContent {
		return fmt.Errorf("state import status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	return nil
}

// ShipSnapshots polls one snapshot from every backend that is not dead,
// synchronously. The background loop calls it on SnapshotInterval; tests
// call it directly. Draining backends are still polled — a draining node
// that answers donates fresher state for its replacement.
func (g *Gateway) ShipSnapshots() {
	for _, b := range g.backends {
		b.mu.Lock()
		state := b.state
		b.mu.Unlock()
		if state == StateDead {
			continue
		}
		data, err := g.fetchState(b, nil)
		if errors.Is(err, bodybuf.ErrTooLarge) {
			g.logf("gateway: snapshot from %s refused, the previous one kept: %v", b.addr, err)
		}
		if err != nil {
			continue // the prober owns failure accounting
		}
		b.mu.Lock()
		b.snapshot = data
		b.snapshotAt = time.Now()
		b.mu.Unlock()
	}
}

// Replace swaps backend i's address for a fresh process and rehydrates it:
// the latest polled OAKSNAP2 snapshot is shipped whole (the replacement's
// state source becomes "shipped"), or — when the backend died before any
// snapshot was polled — the standby donates a per-user-range export of the
// dead arc, the reports it absorbed while covering for the dead node. The
// backend re-enters the fleet healthy; the next probe cycle re-verifies.
func (g *Gateway) Replace(ctx context.Context, i int, newAddr string) error {
	if i < 0 || i >= len(g.backends) {
		return fmt.Errorf("gateway: no backend %d", i)
	}
	addr := normalizeAddr(newAddr)
	if addr == "" {
		return fmt.Errorf("gateway: empty replacement address")
	}
	to, err := parseTarget(addr)
	if err != nil {
		return err
	}
	b := g.backends[i]
	b.mu.Lock()
	snap := b.snapshot
	b.mu.Unlock()

	switch {
	case len(snap) > 0:
		if err := g.postState(ctx, &to, nil, snap); err != nil {
			return fmt.Errorf("gateway: ship snapshot to %s: %w", addr, err)
		}
	case g.standby != nil && healthyNow(g.standby):
		rng := g.ranges[i]
		data, err := g.fetchState(g.standby, &rng)
		if err != nil {
			return fmt.Errorf("gateway: no stored snapshot and standby range export failed: %w", err)
		}
		if err := g.postState(ctx, &to, &rng, data); err != nil {
			return fmt.Errorf("gateway: ship standby range to %s: %w", addr, err)
		}
	default:
		// Nothing to rehydrate from; the replacement starts fresh. Still a
		// valid replacement — the fleet heals forward.
		g.logf("gateway: replacing %s with no state to ship", b.addr)
	}

	b.mu.Lock()
	old, retired := b.addr, b.base
	b.target = to
	b.state = StateHealthy
	b.fails = 0
	b.drained = false
	b.lastErr = ""
	b.healthz = nil
	b.mu.Unlock()
	g.transport.closeIdle(retired)
	g.metrics.Replacements.Inc()
	g.logf("gateway: replaced backend %d: %s -> %s", i, old, addr)
	return nil
}

// handleReplace is the HTTP form of Replace.
func (g *Gateway) handleReplace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	i, err := strconv.Atoi(q.Get("backend"))
	if err != nil {
		http.Error(w, "backend parameter must be an index", http.StatusBadRequest)
		return
	}
	addr := q.Get("addr")
	if addr == "" {
		http.Error(w, "addr parameter required", http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ForwardTimeout)
	defer cancel()
	if err := g.Replace(ctx, i, addr); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDrain pins (or, with ?undrain=1, releases) a backend's draining
// state.
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	i, err := strconv.Atoi(q.Get("backend"))
	if err != nil || i < 0 || i >= len(g.backends) {
		http.Error(w, "backend parameter must be a valid index", http.StatusBadRequest)
		return
	}
	if q.Get("undrain") == "1" {
		g.Undrain(i)
	} else {
		g.Drain(i)
	}
	w.WriteHeader(http.StatusNoContent)
}
