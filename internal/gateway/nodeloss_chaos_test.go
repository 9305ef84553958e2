package gateway_test

// Node-loss chaos: a real three-backend fleet (full engine + origin stacks)
// plus standby behind the gateway, with real instrumented clients browsing
// through it. One backend is killed mid-traffic; the scenario asserts the
// whole robustness story against injected ground truth:
//
//   - traffic reroutes within the health-probe budget with zero 5xx,
//   - the dead node's replacement rehydrates from the gateway's shipped
//     OAKSNAP2 snapshot (state source "shipped", activations preserved),
//   - a provider kill detected by one backend's breaker is broadcast
//     fleet-wide: recall 1.0 (every live node quarantines it) and precision
//     1.0 (nothing else is quarantined) against the injected fault.
//
// Run with the race detector; scripts/verify.sh smokes it as
// `go test -race -run TestNodeLossChaos ./internal/gateway`.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oak"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
)

// nodeChaosHost is one logical provider whose latency and liveness switch
// atomically mid-run.
type nodeChaosHost struct {
	ts      *httptest.Server
	delayMs atomic.Int64
	dead    atomic.Bool
}

func newNodeChaosHost(t *testing.T, delay time.Duration) *nodeChaosHost {
	t.Helper()
	h := &nodeChaosHost{}
	h.delayMs.Store(int64(delay / time.Millisecond))
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Duration(h.delayMs.Load()) * time.Millisecond)
		if h.dead.Load() {
			http.Error(w, "provider down", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(make([]byte, 512))
	}))
	t.Cleanup(h.ts.Close)
	return h
}

func (h *nodeChaosHost) addr(t *testing.T) string {
	t.Helper()
	u, err := url.Parse(h.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

const nodeLossPage = `<html>
<script src="http://s1.com/jquery.js"></script>
<img src="http://a.example/a.png">
<img src="http://b.example/b.png">
<img src="http://c.example/c.png">
</html>`

func nodeLossRule(t *testing.T) *oak.Rule {
	t.Helper()
	rs, err := oak.ParseRulesJSON([]byte(`[{
		"id":"jquery","type":2,
		"default":"<script src=\"http://s1.com/jquery.js\"></script>",
		"alternatives":["<script src=\"http://s2.net/jquery.js\"></script>"],
		"scope":"*","ttlMillis":0
	}]`))
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// oakNode is one full backend stack: engine, origin server, listener.
type oakNode struct {
	engine *oak.Engine
	ts     *httptest.Server
}

func newOakNode(t *testing.T) *oakNode {
	t.Helper()
	engine, err := oak.NewEngine([]*oak.Rule{nodeLossRule(t)},
		oak.WithGuard(oak.GuardConfig{
			TripThreshold:    3,
			OpenFor:          30 * time.Second, // stays open for the whole test
			HalfOpenCanaries: 1,
			CloseAfter:       1,
			PanicThreshold:   2,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	server := oak.NewServer(engine)
	server.SetPage("/index.html", nodeLossPage)
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	return &oakNode{engine: engine, ts: ts}
}

// gwPageAs fetches /index.html through the gateway as the given user.
func gwPageAs(t *testing.T, gwURL, user string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, gwURL+"/index.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// usersForArc finds n distinct user IDs owned by arc i of a 3-way split.
func usersForArc(t *testing.T, i, n int) []string {
	t.Helper()
	ranges := core.EqualRanges(3)
	var out []string
	for s := 0; len(out) < n && s < 1000000; s++ {
		uid := fmt.Sprintf("chaos-u%d-%d", i, s)
		if core.RangeFor(uid, ranges) == i {
			out = append(out, uid)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d users for arc %d", n, i)
	}
	return out
}

func TestNodeLossChaos(t *testing.T) {
	// Injected ground truth, provider side: s1.com is the chronically slow
	// default every user migrates away from; s2.net is the fast alternate
	// that will be killed in phase 4.
	s1 := newNodeChaosHost(t, 60*time.Millisecond)
	s2 := newNodeChaosHost(t, 5*time.Millisecond)
	bystA := newNodeChaosHost(t, 5*time.Millisecond)
	bystB := newNodeChaosHost(t, 10*time.Millisecond)
	bystC := newNodeChaosHost(t, 15*time.Millisecond)
	hosts := map[string]string{
		"s1.com":    s1.addr(t),
		"s2.net":    s2.addr(t),
		"a.example": bystA.addr(t),
		"b.example": bystB.addr(t),
		"c.example": bystC.addr(t),
	}

	// The fleet: three range-owning backends plus a standby.
	nodes := []*oakNode{newOakNode(t), newOakNode(t), newOakNode(t)}
	standby := newOakNode(t)
	gw, err := gateway.NewGateway(gateway.Config{
		Backends: []string{nodes[0].ts.URL, nodes[1].ts.URL, nodes[2].ts.URL},
		Standby:  standby.ts.URL,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwts := httptest.NewServer(gw)
	defer gwts.Close()
	gw.ProbeOnce()

	load := func(user string, seed int64) {
		t.Helper()
		c := &oak.Client{
			UserID: user,
			Resolve: func(host string) (string, bool) {
				addr, ok := hosts[host]
				return addr, ok
			},
			ObjectTimeout: 2 * time.Second,
			Retry:         oak.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			Seed:          seed,
		}
		if _, _, err := c.LoadAndReport(gwts.URL, "/index.html"); err != nil {
			t.Fatalf("load as %s: %v", user, err)
		}
	}

	// Phase 1 — activate through the gateway: each arc's users browse, their
	// reports land on their owner backend, and everyone migrates onto the
	// s2.net alternate.
	arcUsers := [3][]string{}
	for i := range arcUsers {
		arcUsers[i] = usersForArc(t, i, 3)
	}
	seed := int64(1)
	for i, users := range arcUsers {
		for _, u := range users {
			load(u, seed)
			seed++
			if code, body := gwPageAs(t, gwts.URL, u); code != 200 || !strings.Contains(body, "s2.net") {
				t.Fatalf("phase 1: %s (arc %d) not activated via gateway (status %d):\n%s", u, i, code, body)
			}
		}
	}
	// Partitioning held: every backend holds exactly its own arc's users.
	for i, n := range nodes {
		if got := n.engine.Users(); got != len(arcUsers[i]) {
			t.Fatalf("phase 1: backend %d holds %d users, want %d", i, got, len(arcUsers[i]))
		}
	}
	if got := standby.engine.Users(); got != 0 {
		t.Fatalf("phase 1: standby absorbed %d users before any failure", got)
	}

	// Phase 2 — node loss. The gateway has polled snapshots; then backend 1
	// is killed mid-traffic. After the probe budget walks it to dead, a full
	// round of pages and reports must see zero 5xx: arc-1 traffic reroutes
	// to the standby.
	gw.ShipSnapshots()
	shippedVersion := map[string]uint64{}
	for _, u := range arcUsers[1] {
		snap, _ := nodes[1].engine.Snapshot(u)
		shippedVersion[u] = snap.Version
	}
	killedAt := time.Now()
	nodes[1].ts.Close()
	for i := 0; i < gateway.DefaultDeadThreshold; i++ {
		gw.ProbeOnce()
	}
	if st := gw.BackendStates(); st[1] != gateway.StateDead {
		t.Fatalf("phase 2: killed backend state = %v, want dead", st[1])
	}
	for _, users := range arcUsers {
		for _, u := range users {
			if code, _ := gwPageAs(t, gwts.URL, u); code >= 500 {
				t.Fatalf("phase 2: %s got %d after the probe window (want zero 5xx)", u, code)
			}
		}
	}
	for _, u := range arcUsers[1] {
		load(u, seed) // reports flow to the standby
		seed++
	}
	if got := standby.engine.Users(); got != len(arcUsers[1]) {
		t.Fatalf("phase 2: standby absorbed %d users, want %d", got, len(arcUsers[1]))
	}
	t.Logf("phase 2: time to reroute (kill -> dead + clean round): %v", time.Since(killedAt))

	// Phase 3 — replacement. A fresh node is rehydrated from the gateway's
	// stored OAKSNAP2 snapshot: the arc's users, activations included, come
	// back, and the node reports its state source as shipped.
	replacement := newOakNode(t)
	if err := gw.Replace(t.Context(), 1, replacement.ts.URL); err != nil {
		t.Fatalf("phase 3: replace: %v", err)
	}
	if got := replacement.engine.Users(); got != len(arcUsers[1]) {
		t.Fatalf("phase 3: replacement rehydrated %d users, want %d", got, len(arcUsers[1]))
	}
	var hz origin.HealthzResponse
	resp, err := http.Get(replacement.ts.URL + origin.HealthzPathV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.StateSource != "shipped" || hz.StateRecoveries != 1 {
		t.Fatalf("phase 3: replacement healthz state_source=%q recoveries=%d, want shipped/1", hz.StateSource, hz.StateRecoveries)
	}
	gw.ProbeOnce()
	for _, u := range arcUsers[1] {
		if code, body := gwPageAs(t, gwts.URL, u); code != 200 || !strings.Contains(body, "s2.net") {
			t.Fatalf("phase 3: %s lost activation across replacement (status %d):\n%s", u, code, body)
		}
		// The profile's version crossed with it: the replacement's saves and
		// spill records order against the dead node's.
		if snap, _ := replacement.engine.Snapshot(u); snap.Version == 0 || snap.Version != shippedVersion[u] {
			t.Fatalf("phase 3: %s rehydrated at version %d, shipped at %d", u, snap.Version, shippedVersion[u])
		}
	}

	// Phase 4 — fleet-wide mitigation. Ground truth: s2.net dies. Arc-0
	// users' reports trip backend 0's breaker organically; the control sweep
	// must broadcast the quarantine to every other live node. Recall 1.0:
	// all four live engines end with the breaker open. Precision 1.0:
	// nothing but s2.net is quarantined anywhere.
	s2.dead.Store(true)
	s2.delayMs.Store(25)
	faultAt := time.Now()
	const reportBudget = 10
	tripped := false
	for i := 0; i < reportBudget && !tripped; i++ {
		load(arcUsers[0][i%len(arcUsers[0])], seed)
		seed++
		tripped = len(nodes[0].engine.OpenBreakers()) > 0
	}
	if !tripped {
		t.Fatalf("phase 4: breaker never tripped on backend 0 within %d reports", reportBudget)
	}
	gw.ProbeOnce() // pick up the tripped breaker in healthz
	gw.ControlSweep()

	liveEngines := map[string]*oak.Engine{
		"backend0":    nodes[0].engine,
		"replacement": replacement.engine,
		"backend2":    nodes[2].engine,
		"standby":     standby.engine,
	}
	quarantined := 0
	for name, e := range liveEngines {
		open := e.OpenBreakers()
		if len(open) == 1 && open[0] == "s2.net" {
			quarantined++
		} else {
			t.Errorf("phase 4: %s OpenBreakers = %v, want [s2.net]", name, open)
		}
	}
	recall := float64(quarantined) / float64(len(liveEngines))
	t.Logf("phase 4: recall %.2f (%d/%d nodes quarantined s2.net), time to fleet-wide mitigation %v",
		recall, quarantined, len(liveEngines), time.Since(faultAt))
	if recall != 1.0 {
		t.Fatalf("phase 4: recall = %.2f, want 1.0", recall)
	}
	// The broadcast rolls the provider back everywhere: arc-2 users — whose
	// own backend never saw a bad report — are already off s2.net, and each
	// one's next report drops and counts the dead activation.
	for _, u := range arcUsers[2] {
		if code, body := gwPageAs(t, gwts.URL, u); code != 200 || strings.Contains(body, "s2.net") {
			t.Errorf("phase 4: %s still on dead s2.net after broadcast (status %d)", u, code)
		}
	}
	for _, u := range arcUsers[2] {
		load(u, seed)
		seed++
	}
	if m := nodes[2].engine.Metrics(); m.BulkDeactivations == 0 {
		t.Error("phase 4: broadcast did not roll back an activation on backend 2")
	}
}
