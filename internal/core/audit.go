package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Auditing: the paper's discussion observes that "examining which rules are
// being activated by clients enables site operators to determine which
// components of their sites are performing poorly, effectively using the
// performance reports of Oak as an offline auditing tool". Audit assembles
// that view: per-rule activation footprints, the worst-offending servers,
// and the engine's aggregate counters. It keeps no state of its own: every
// per-user figure is a fold over the profiles, resident and spilled, so an
// audit survives a restart and reads the same on capped and uncapped engines.

// AuditEntry is one rule's activation footprint.
type AuditEntry struct {
	RuleID string
	// Users counts the users with a live activation of the rule, UserFraction
	// divides it by every user the audit visited, and Activations sums those
	// activations' (re-)activation counters.
	Users        int
	UserFraction float64
	Activations  int
	// Classification is "common" (>18 % of users, a provider-side problem)
	// or "individual" (client-specific conditions), the paper's Table 3
	// split.
	Classification string
}

// AuditServerEntry is one server's violation footprint across users.
type AuditServerEntry struct {
	ServerAddr string
	// Users counts distinct users for whom the server violated.
	Users int
	// Violations is the total violation count across reports.
	Violations int
}

// Audit is an operator-facing summary of everything Oak has learned.
type Audit struct {
	GeneratedAt time.Time
	Users       int
	Metrics     Metrics
	Rules       []AuditEntry
	// WorstServers lists servers by violation footprint, descending.
	WorstServers []AuditServerEntry
}

// commonThreshold is the paper's individual/common cut (18 % of users).
const commonThreshold = 0.18

// Audit builds the operator summary with one walk over every profile, the
// export's (eachPersisted), under the export's failure rule: a damaged spilled
// record is quarantined and left out, an I/O error fails the audit. Users is
// the number of profiles the walk visited. The walk is weakly consistent under
// concurrent ingest, like an export; each user lives in exactly one shard, so
// per-rule and per-server user counts stay exact.
func (e *Engine) Audit() (*Audit, error) {
	now := e.now()
	a := &Audit{GeneratedAt: now, Metrics: e.Metrics()}
	byRule := make(map[string]*AuditEntry)
	byServer := make(map[string]*AuditServerEntry)
	err := e.eachPersisted(HashRange{}, now, true, func(pp persistedProfile) {
		a.Users++
		for _, act := range pp.Active {
			r, ok := byRule[act.RuleID]
			if !ok {
				r = &AuditEntry{RuleID: act.RuleID}
				byRule[act.RuleID] = r
			}
			r.Users++
			r.Activations += act.Activations
		}
		for addr, n := range pp.Violations {
			s, ok := byServer[addr]
			if !ok {
				s = &AuditServerEntry{ServerAddr: addr}
				byServer[addr] = s
			}
			s.Users++
			s.Violations += n
		}
	})
	if err != nil {
		return nil, err
	}
	for _, r := range byRule {
		r.UserFraction = float64(r.Users) / float64(a.Users)
		r.Classification = "individual"
		if r.UserFraction > commonThreshold {
			r.Classification = "common"
		}
		a.Rules = append(a.Rules, *r)
	}
	sort.Slice(a.Rules, func(i, j int) bool {
		if a.Rules[i].UserFraction != a.Rules[j].UserFraction {
			return a.Rules[i].UserFraction > a.Rules[j].UserFraction
		}
		return a.Rules[i].RuleID < a.Rules[j].RuleID
	})
	for _, s := range byServer {
		a.WorstServers = append(a.WorstServers, *s)
	}
	sort.Slice(a.WorstServers, func(i, j int) bool {
		if a.WorstServers[i].Violations != a.WorstServers[j].Violations {
			return a.WorstServers[i].Violations > a.WorstServers[j].Violations
		}
		return a.WorstServers[i].ServerAddr < a.WorstServers[j].ServerAddr
	})
	return a, nil
}

// Render formats the audit as a text report.
func (a *Audit) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Oak audit — generated %s\n", a.GeneratedAt.Format(time.RFC3339))
	fmt.Fprintf(&b, "users: %d   reports: %d   objects: %d   violations: %d\n",
		a.Users, a.Metrics.ReportsHandled, a.Metrics.EntriesProcessed, a.Metrics.ViolationsDetected)
	fmt.Fprintf(&b, "rule activations: %d   reverts: %d   expiries: %d   pages rewritten: %d\n",
		a.Metrics.RuleActivations, a.Metrics.RuleDeactivations, a.Metrics.RuleExpirations,
		a.Metrics.PagesModified)

	if len(a.WorstServers) > 0 {
		b.WriteString("\nworst servers (by violation count):\n")
		top := a.WorstServers
		if len(top) > 10 {
			top = top[:10]
		}
		for _, s := range top {
			fmt.Fprintf(&b, "  %-40s violations=%-5d users=%d\n", s.ServerAddr, s.Violations, s.Users)
		}
	}
	if len(a.Rules) > 0 {
		b.WriteString("\nrule activation footprint:\n")
		for _, r := range a.Rules {
			fmt.Fprintf(&b, "  %-40s %-10s users=%-4d (%.0f%%) activations=%d\n",
				r.RuleID, r.Classification, r.Users, 100*r.UserFraction, r.Activations)
		}
	}
	return b.String()
}
