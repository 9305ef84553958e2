package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
)

// TestDecisionTraceGolden holds the decision trace to a golden: one traced
// engine (fixed clock, one shard, guard and synthesis on) driven through each
// decision the engine traces — an organic activation, a blocked activation, a
// canary, a keep, an advance, a blocked advance, a revert, a synthesis
// admitted on a fallback alternative, a blocked synthesis, a synthesized
// canary, an expiry and a rollback — and records every event's kind, user,
// rule, provider and detail, in order. The operator's verbs that set the
// scene trace too, and are held with the rest.
func TestDecisionTraceGolden(t *testing.T) {
	clock := newTestClock()
	rs := []*rules.Rule{
		jqRule(0, `<script src="http://s2.net/jquery.js">`, `<script src="http://s3.org/jquery.js">`),
		{ID: "fonts", Type: rules.TypeReplaceSame, Scope: "*", TTL: time.Hour,
			Default:      `<script src="http://f1.com/font.js">`,
			Alternatives: []string{`<script src="http://f2.net/font.js">`}},
		{ID: "ads", Type: rules.TypeReplaceSame, Scope: "*",
			Default:      `<script src="http://ad1.com/ads.js">`,
			Alternatives: []string{`<script src="http://ad2.net/ads.js">`, `<script src="http://ad3.net/ads.js">`}},
		{ID: "widget", Type: rules.TypeReplaceSame, Scope: "*",
			Default:      `<script src="http://w1.com/w.js">`,
			Alternatives: []string{`<script src="http://w2.net/w.js">`}},
	}
	e, err := NewEngine(rs, WithClock(clock.Now), WithShards(1), WithTraceCapacity(1024),
		WithGuard(GuardConfig{TripThreshold: 5, OpenFor: time.Minute, HalfOpenCanaries: 2, CloseAfter: 2}), synthesisOn)
	if err != nil {
		t.Fatal(err)
	}
	// slow is a report from user where host is 20× slower than four peers.
	slow := func(user, host string, ms float64) {
		t.Helper()
		if _, err := e.HandleReport(loadReport(user, map[string]float64{
			host: ms, "a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
		})); err != nil {
			t.Fatal(err)
		}
	}
	slow("u1", "s1.com", 2000) // organic activation onto s2.net
	slow("u1", "s2.net", 200)  // keep: nearer the median than s1.com was
	slow("u1", "s2.net", 5000) // advance onto s3.org
	slow("u1", "s3.org", 5000) // revert: no alternative is left
	slow("u2", "s1.com", 2000)
	e.QuarantineProvider("s3.org")
	slow("u2", "s2.net", 5000) // blocked advance: reverted
	e.QuarantineProvider("s2.net")
	slow("u3", "s1.com", 2000) // blocked activation
	clock.Advance(2 * time.Minute)
	slow("u4", "s1.com", 2000) // a canary through the half-open s2.net
	e.ObserveProviderOutcome("s2.net", false, 900)
	slow("u4", "a.example", 100) // rollback of the canary
	e.QuarantineProvider("ad2.net")
	e.MarkDegraded("ad1.com")
	slow("u6", "ad1.com", 100) // synthesis on the fallback ad3.net
	e.QuarantineProvider("w2.net")
	e.MarkDegraded("w1.com")
	slow("u7", "w1.com", 100) // blocked synthesis
	clock.Advance(2 * time.Minute)
	slow("u8", "w1.com", 100) // a synthesized canary through the half-open w2.net
	slow("u5", "f1.com", 2000)
	clock.Advance(2 * time.Hour)
	slow("u5", "a.example", 100) // expiry

	var got []string
	for _, ev := range e.TraceRecent(1024) {
		got = append(got, fmt.Sprintf("%s|%s|%s|%s|%s", ev.Kind, ev.User, ev.RuleID, ev.Provider, ev.Detail))
	}
	if g, w := strings.Join(got, "\n"), strings.Join(traceGolden, "\n"); g != w {
		t.Errorf("decision trace differs from the golden:\n--- got\n%s\n--- want\n%s", g, w)
	}
}

// traceGolden is TestDecisionTraceGolden's trace: kind|user|rule|provider|detail.
var traceGolden = []string{
	"report|u1|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u1||ip-s1.com|small-time 1895.0 beyond median, violation #1",
	"activate|u1|jquery|ip-s1.com|direct match, alt 0",
	"report|u1|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u1||ip-s2.net|small-time 95.0 beyond median, violation #1",
	"keep|u1|jquery|ip-s2.net|alt dist 95.0 < default dist 1895.0",
	"report|u1|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u1||ip-s2.net|small-time 4895.0 beyond median, violation #2",
	"advance|u1|jquery|ip-s2.net|alt 1",
	"report|u1|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u1||ip-s3.org|small-time 4895.0 beyond median, violation #1",
	"deactivate|u1|jquery|ip-s3.org|alternate worse than default",
	"report|u2|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u2||ip-s1.com|small-time 1895.0 beyond median, violation #1",
	"activate|u2|jquery|ip-s1.com|direct match, alt 0",
	"quarantine|||s3.org|manual quarantine",
	"report|u2|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u2||ip-s2.net|small-time 4895.0 beyond median, violation #1",
	"quarantine|u2|jquery|s3.org|advance to alt 1 blocked; reverted to default",
	"quarantine|||s2.net|manual quarantine",
	"report|u3|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u3||ip-s1.com|small-time 1895.0 beyond median, violation #1",
	"quarantine|u3|jquery|s2.net|activation blocked, alt 0",
	"report|u4|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u4||ip-s1.com|small-time 1895.0 beyond median, violation #1",
	"canary|u4|jquery||canary activation through half-open breaker, alt 0",
	"activate|u4|jquery|ip-s1.com|direct match, alt 0",
	"quarantine|||s2.net|breaker tripped (delta 900.0ms)",
	"report|u4|||page /index.html: 4 objects, 4 servers, 0 violators",
	"rollback|u4|jquery|s2.net|alt 0 rolled back: epoch 1",
	"quarantine|||ad2.net|manual quarantine",
	"pop-degrade|||ad1.com|manually marked degraded",
	"report|u6|||page /index.html: 5 objects, 5 servers, 0 violators",
	"synthesize|u6|ads|ip-ad1.com|direct match, alt 1, population 0.00x baseline",
	"quarantine|||w2.net|manual quarantine",
	"pop-degrade|||w1.com|manually marked degraded",
	"report|u7|||page /index.html: 5 objects, 5 servers, 0 violators",
	"quarantine|u7|widget|w2.net|synthesized activation blocked; no admitted alternative",
	"report|u8|||page /index.html: 5 objects, 5 servers, 0 violators",
	"canary|u8|widget||canary synthesis through half-open breaker, alt 0",
	"synthesize|u8|widget|ip-w1.com|direct match, alt 0, population 0.00x baseline",
	"report|u5|||page /index.html: 5 objects, 5 servers, 1 violators",
	"violator|u5||ip-f1.com|small-time 1895.0 beyond median, violation #1",
	"activate|u5|fonts|ip-f1.com|direct match, alt 0",
	"report|u5|||page /index.html: 4 objects, 4 servers, 0 violators",
	"expire|u5|fonts||",
}
