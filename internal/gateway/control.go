package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"oak/internal/core"
	"oak/internal/origin"
)

// Cluster control channel: guard and population discoveries are per-node —
// each backend only sees the reports its own users submit — but the
// conclusion "this provider is bad" is population-wide truth. The control
// sweep re-broadcasts it:
//
//   - Breaker trips use rising-edge memory. When a provider first appears
//     in any backend's open-breaker set, the gateway force-opens the
//     provider's breaker (POST /oak/v1/guard/quarantine) on every other
//     live backend, which bulk-rolls-back its activations there too. No
//     release broadcast is needed: a force-opened breaker carries the same
//     cool-down → half-open → canary path as an organic trip, so every
//     node re-admits the provider on its own evidence. The memory clears
//     when no backend reports the breaker open anymore, re-arming the edge
//     for the next trip.
//   - Degraded episodes are state-driven. An organic (non-manual) episode
//     on one backend is mirrored as a manual MarkDegraded on every live
//     backend that has no episode of its own; because the mirror is
//     manual, it is excluded from the organic union, so mirrors never feed
//     back. When the last organic episode recovers, the gateway clears
//     exactly the mirrors it created.

// postControl POSTs one provider control verb to a backend. A 404 is not
// an error: the backend was built without that subsystem.
func (g *Gateway) postControl(b *backend, path, provider string) error {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	u := b.urlFor(&url.URL{Path: path, RawQuery: "provider=" + url.QueryEscape(provider)})
	rep, err := g.call(ctx, u, http.MethodPost, nil, nil, maxAckBytes)
	if err != nil {
		return err
	}
	rep.release()
	if rep.status >= 400 && rep.status != http.StatusNotFound {
		return fmt.Errorf("control %s status %d", path, rep.status)
	}
	return nil
}

// liveBackends returns every backend (standby included) that is not dead
// and has answered at least one probe.
func (g *Gateway) liveBackends() []*backend {
	var out []*backend
	for _, b := range g.all() {
		st, _, _, hz := b.snapshotState()
		if st != StateDead && hz != nil {
			out = append(out, b)
		}
	}
	return out
}

// ControlSweep runs one breaker + degraded broadcast pass, synchronously.
// The background loop calls it after every probe cycle; tests call it
// directly.
func (g *Gateway) ControlSweep() {
	live := g.liveBackends()
	g.sweepBreakers(live)
	g.sweepDegraded(live)
}

// sweepBreakers mirrors newly tripped breakers fleet-wide.
func (g *Gateway) sweepBreakers(live []*backend) {
	openOn := make(map[string]map[*backend]struct{})
	for _, b := range live {
		_, _, _, hz := b.snapshotState()
		for _, p := range hz.OpenBreakers {
			if openOn[p] == nil {
				openOn[p] = make(map[*backend]struct{})
			}
			openOn[p][b] = struct{}{}
		}
	}

	g.ctlMu.Lock()
	var broadcast []string
	for p := range openOn {
		if _, seen := g.seenBreakers[p]; !seen {
			g.seenBreakers[p] = struct{}{}
			broadcast = append(broadcast, p)
		}
	}
	for p := range g.seenBreakers {
		if _, still := openOn[p]; !still {
			// Every backend's breaker self-healed: re-arm the edge.
			delete(g.seenBreakers, p)
		}
	}
	g.ctlMu.Unlock()

	for _, p := range broadcast {
		g.metrics.BreakerBroadcasts.Inc()
		for _, b := range live {
			if _, has := openOn[p][b]; has {
				continue // this backend's own trip started the broadcast
			}
			if err := g.postControl(b, origin.GuardQuarantinePathV1, p); err != nil {
				g.logf("gateway: breaker broadcast %s to %s: %v", p, b.addr, err)
				continue
			}
			g.logf("gateway: breaker broadcast: quarantined %s on %s", p, b.addr)
		}
	}
}

// sweepDegraded mirrors organic degraded episodes fleet-wide and clears
// the mirrors it created once the organic episodes recover.
func (g *Gateway) sweepDegraded(live []*backend) {
	organicOn := make(map[string]map[*backend]struct{}) // provider → backends with organic episode
	degradedOn := make(map[*backend]map[string]struct{})
	var popLive []*backend // backends with the population subsystem
	for _, b := range live {
		var ps core.PopulationStatus
		if g.getStatus(b, origin.PopulationPathV1, &ps) != nil {
			continue // no population subsystem, or no answer
		}
		popLive = append(popLive, b)
		degradedOn[b] = make(map[string]struct{}, len(ps.Degraded))
		for _, d := range ps.Degraded {
			degradedOn[b][d.Provider] = struct{}{}
			if !d.Manual {
				if organicOn[d.Provider] == nil {
					organicOn[d.Provider] = make(map[*backend]struct{})
				}
				organicOn[d.Provider][b] = struct{}{}
			}
		}
	}

	// Mirror each organic episode onto every population-enabled backend
	// that has no episode of its own (state-driven, so a replaced backend
	// is re-marked on the next sweep).
	for p := range organicOn {
		for _, b := range popLive {
			if _, has := degradedOn[b][p]; has {
				continue
			}
			if err := g.postControl(b, origin.PopulationDegradePathV1, p); err != nil {
				g.logf("gateway: degrade broadcast %s to %s: %v", p, b.addr, err)
				continue
			}
			g.metrics.DegradeBroadcasts.Inc()
			g.ctlMu.Lock()
			if g.markedOn[p] == nil {
				g.markedOn[p] = make(map[*backend]struct{})
			}
			g.markedOn[p][b] = struct{}{}
			g.ctlMu.Unlock()
			g.logf("gateway: degrade broadcast: marked %s on %s", p, b.addr)
		}
	}

	// Clear our mirrors for providers whose organic episodes all recovered.
	g.ctlMu.Lock()
	toClear := make(map[string][]*backend)
	for p, marks := range g.markedOn {
		if _, still := organicOn[p]; still {
			continue
		}
		for b := range marks {
			toClear[p] = append(toClear[p], b)
		}
		delete(g.markedOn, p)
	}
	g.ctlMu.Unlock()
	for p, bs := range toClear {
		for _, b := range bs {
			if err := g.postControl(b, origin.PopulationClearPathV1, p); err != nil {
				g.logf("gateway: degrade clear %s on %s: %v", p, b.addr, err)
				continue
			}
			g.logf("gateway: degrade clear: released %s on %s", p, b.addr)
		}
	}
}
