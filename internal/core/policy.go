package core

import (
	"hash/fnv"

	"oak/internal/rules"
)

// AltSelector chooses which alternative of a rule to use for a given user at
// a given (re-)activation. prev is the previously used index, or -1 on first
// activation.
type AltSelector func(r *rules.Rule, prev int, userID string) int

// LinearSelector is the paper's default: "Oak progresses through the list
// linearly with each activation."
func LinearSelector(r *rules.Rule, prev int, _ string) int {
	next := prev + 1
	if next >= len(r.Alternatives) {
		next = len(r.Alternatives) - 1
	}
	if next < 0 {
		next = 0
	}
	return next
}

// HashSelector spreads users across alternatives by a stable hash of the
// user id — an example of the paper's note that selection "can further be
// configured via a selection policy ... for example by IP subnet, or other
// network level features".
func HashSelector(r *rules.Rule, _ int, userID string) int {
	if len(r.Alternatives) == 0 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(userID))
	return int(h.Sum32() % uint32(len(r.Alternatives)))
}

// Policy is the operator-tunable behaviour of the engine (Section 4.2.4).
type Policy struct {
	// MADMultiplier is k in the violator criterion; the paper uses 2.
	MADMultiplier float64
	// MinViolations is how many violations a server must accumulate for a
	// user before rules matching it may activate. The paper's example:
	// an expensive CDN switch might require 3. Default 1 (act immediately).
	MinViolations int
	// SelectAlternative picks among a rule's alternatives. Defaults to
	// LinearSelector.
	SelectAlternative AltSelector
	// MatchLevel caps the evidence tier used to tie rules to violators.
	// Defaults to MatchExternalJS (every tier).
	MatchLevel MatchLevel
	// MatchDepth is the number of external-script layers followed.
	// Defaults to 1, per the paper.
	MatchDepth int
}

// DefaultPolicy returns the paper's deployed configuration.
func DefaultPolicy() Policy {
	return Policy{
		MADMultiplier:     2,
		MinViolations:     1,
		SelectAlternative: LinearSelector,
		MatchLevel:        MatchExternalJS,
		MatchDepth:        1,
	}
}

// normalized fills zero-valued fields with defaults so a partially
// constructed Policy behaves sensibly.
func (p Policy) normalized() Policy {
	d := DefaultPolicy()
	if p.MADMultiplier <= 0 {
		p.MADMultiplier = d.MADMultiplier
	}
	if p.MinViolations <= 0 {
		p.MinViolations = d.MinViolations
	}
	if p.SelectAlternative == nil {
		p.SelectAlternative = d.SelectAlternative
	}
	if p.MatchLevel == MatchNone {
		p.MatchLevel = d.MatchLevel
	}
	if p.MatchDepth <= 0 {
		p.MatchDepth = d.MatchDepth
	}
	return p
}
