package main

import (
	"strconv"
	"sync/atomic"

	"oak/internal/core"
	"oak/internal/origin"
	"oak/internal/report"
)

// opKind is what one HTTP exchange of the generator does.
type opKind uint8

const (
	opReport opKind = iota // POST one report
	opPage                 // GET one page
	opBatch                // POST batchReports reports
	numKinds
)

func (k opKind) String() string { return [...]string{"report", "page", "batch"}[k] }

// topology is which processes a workload runs against.
type topology uint8

const (
	topoDirect  topology = iota // one oakd, default flags
	topoGateway                 // oakgw in front of two oakd
	topoSpill                   // one oakd with a residency cap and a spill directory
)

// workload is one traffic mix. Every workload carries all three kinds of
// exchange, because every end-to-end metric is reported on every workload;
// the kinds a workload is not about ride along as a thin probe stream.
type workload struct {
	name, why string
	topo      topology
	users     int
	// share is the number of exchanges of each kind in every hundred.
	share [numKinds]int
	// rate is the paced phase's fixed offered rate, exchanges per second:
	// about 40 % of what the saturate phase measured on the 2-core box the
	// benchmark was calibrated on.
	rate int
	// genUs is the generator's own CPU time per exchange (µs) in the saturate
	// phase on the same box at a quiet time: the reference the run's machine
	// speed is measured against (see procSampler.machineSpeed).
	genUs float64
	// mixedWire alternates JSON and OAKRPT1 singles by user, and NDJSON and
	// binary batches by batch.
	mixedWire bool
	// profileCache is oakd's -profile-cache (topoSpill only).
	profileCache int
}

var workloads = []workload{
	{
		name: "report_direct", topo: topoDirect, users: 2000, rate: 4000, genUs: 45.8,
		share: [numKinds]int{opReport: 94, opPage: 5, opBatch: 1},
		why:   "one oakd, almost all single JSON reports: net/http, origin report handler, decode and ingest do the work; rewrite cache and rules do none",
	},
	{
		name: "page_direct", topo: topoDirect, users: 2000, rate: 3000, genUs: 79.5,
		share: [numKinds]int{opPage: 93, opReport: 6, opBatch: 1},
		why:   "one oakd, almost all page GETs of 8/32/128 KB: origin page handler, fingerprint, rewrite cache and compiled apply dominate; ingest does little",
	},
	{
		name: "gateway_mixed", topo: topoGateway, users: 2000, rate: 900, genUs: 88.4, mixedWire: true,
		share: [numKinds]int{opPage: 50, opReport: 40, opBatch: 10},
		why:   "oakgw in front of two oakd, pages, JSON and binary singles, and batches split across both arcs: the gateway hop and the second HTTP exchange are the added work",
	},
	{
		name: "spill_churn", topo: topoSpill, users: 20000, rate: 2400, genUs: 77.6, profileCache: 2000,
		share: [numKinds]int{opPage: 50, opReport: 49, opBatch: 1},
		why:   "one oakd capped at 2000 resident profiles with 20000 users drawn uniformly: pages read through rehydration while reports evict, append and compact",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Streams of the op generator: each phase of a run draws its operations
// from its own stream, so that how long one phase ran does not change what
// the next one sends.
const (
	streamPrepare uint64 = iota + 1
	streamWarmup
	streamPaced
	streamSaturate
	streamLayers
)

// model is the generator's picture of what the servers hold per user. It
// decides what each user reports and what each page response must look
// like. It is shared by all connections.
type model struct {
	w     *world
	state []atomic.Uint32
	busy  []atomic.Int32
	// begun counts the exchanges ever started per user; an exchange holds
	// its own count as a ticket.
	begun []atomic.Uint32
}

func newModel(w *world) *model {
	n := len(w.userIDs)
	m := &model{w: w, state: make([]atomic.Uint32, n), busy: make([]atomic.Int32, n), begun: make([]atomic.Uint32, n)}
	for u, a := range w.afflict {
		if a >= 0 {
			m.state[u].Store(stPending)
		}
	}
	return m
}

// begin marks the users as having an exchange in flight. It appends each
// user's ticket to tickets and reports whether none of them had an exchange
// in flight already.
func (m *model) begin(users []int, tickets []uint32) (alone bool, _ []uint32) {
	alone = true
	for _, u := range users {
		if m.busy[u].Add(1) != 1 {
			alone = false
		}
		tickets = append(tickets, m.begun[u].Add(1))
	}
	return alone, tickets
}

// undisturbed reports whether no other exchange of these users has begun
// since the tickets were drawn.
func (m *model) undisturbed(users []int, tickets []uint32) bool {
	for k, u := range users {
		if m.begun[u].Load() != tickets[k] {
			return false
		}
	}
	return true
}

func (m *model) end(users []int) {
	for _, u := range users {
		m.busy[u].Add(-1)
	}
}

// acked records that the servers acknowledged a report of user u for page
// p that was drawn in state st: a pending user's slow report activates the
// provider's rule.
func (m *model) acked(u int, p *page, st uint32) {
	if a := m.w.afflict[u]; a >= 0 && st == stPending && p.hasFrag[a] {
		m.state[u].Store(stActive)
	}
}

// expectRewrite says whether a page served to user u in state st must
// carry the provider's alternative.
func (m *model) expectRewrite(u int, p *page, st uint32) bool {
	a := m.w.afflict[u]
	return a >= 0 && st == stActive && p.hasFrag[a]
}

// op is one exchange, ready to send.
type op struct {
	kind  opKind
	index uint64
	users []int    // one user, or the batch's members
	pages []int    // page of each user's load
	st    []uint32 // model state each load was drawn in
	// alone and tickets decide whether the response can be checked against
	// the model (see opGen.exclusive).
	alone   bool
	tickets []uint32
	// request is the full HTTP/1.1 request.
	request []byte
	// body is the request body within request (reports and batches).
	body        []byte
	contentType string
	binary      bool
}

// opGen draws operations. One per connection: it owns scratch memory. What
// operation i is depends only on (seed, workload, stream, i) and on the
// model state of the users it touches.
type opGen struct {
	w     *world
	wl    *workload
	m     *model
	host  string
	kinds [100]opKind
	// streamKey folds the stream and the workload's name, so two workloads
	// never replay each other's operations.
	streamKey uint64
	arcs      []core.HashRange

	r    rng
	lt   loadTimes
	rep  report.Report
	body []byte
	tmp  []byte
}

func newOpGen(w *world, wl *workload, m *model, stream uint64, host string) *opGen {
	g := &opGen{w: w, wl: wl, m: m, host: host, streamKey: stream}
	for _, c := range []byte(wl.name) {
		g.streamKey = g.streamKey*1099511628211 ^ uint64(c)
	}
	// The mix is exact in every hundred operations; the seed fixes the
	// order within the hundred.
	n := 0
	for k := opKind(0); k < numKinds; k++ {
		for c := 0; c < wl.share[k]; c++ {
			g.kinds[n] = k
			n++
		}
	}
	sh := newRNG(uint64(w.seed), 0x6d6978)
	for i := len(g.kinds) - 1; i > 0; i-- {
		j := sh.intn(i + 1)
		g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i]
	}
	if wl.topo == topoGateway {
		g.arcs = core.EqualRanges(2)
	}
	return g
}

const baseStampMs = 1_700_000_000_000

// next draws operation i into o and marks its users busy; the caller must
// call finish once the exchange is over.
func (g *opGen) next(i uint64, o *op) {
	g.r.reset(uint64(g.w.seed), g.streamKey, i)
	g.body = g.body[:0]
	o.index = i
	o.kind = g.kinds[i%100]
	o.users, o.pages, o.st = o.users[:0], o.pages[:0], o.st[:0]
	o.binary = false
	n := 1
	if o.kind == opBatch {
		n = batchReports
	}
	for len(o.users) < n {
		u := g.r.intn(len(g.w.userIDs))
		dup := false
		for _, have := range o.users {
			dup = dup || have == u
		}
		if !dup {
			o.users = append(o.users, u)
			o.pages = append(o.pages, g.r.intn(len(g.w.pages)))
		}
	}
	if o.kind == opBatch && g.arcs != nil {
		g.spanArcs(o)
	}
	o.alone, o.tickets = g.m.begin(o.users, o.tickets[:0])
	for _, u := range o.users {
		o.st = append(o.st, g.m.state[u].Load())
	}

	stamp := baseStampMs + int64(i)
	switch o.kind {
	case opPage:
		o.contentType = ""
		o.request = g.appendRequest(o.request[:0], "GET", g.w.pages[o.pages[0]].path, g.w.userIDs[o.users[0]], "", nil)
	case opReport:
		u, p := o.users[0], g.w.pages[o.pages[0]]
		drawLoad(&g.lt, p, &g.r, int(g.w.afflict[u]), o.st[0])
		if g.wl.mixedWire && u%2 == 1 {
			fillReport(&g.rep, g.w.userIDs[u], p, &g.lt, stamp)
			g.body = g.rep.AppendBinary(g.body[:0])
			o.contentType, o.binary = report.ContentTypeBinary, true
		} else {
			g.body = appendReportJSON(g.body[:0], g.w.userIDs[u], p, &g.lt, stamp)
			o.contentType = "application/json"
		}
		o.request = g.appendRequest(o.request[:0], "POST", origin.ReportPathV1, g.w.userIDs[u], o.contentType, g.body)
	case opBatch:
		o.binary = g.wl.mixedWire && (i/100)%2 == 1
		for k, u := range o.users {
			p := g.w.pages[o.pages[k]]
			drawLoad(&g.lt, p, &g.r, int(g.w.afflict[u]), o.st[k])
			if o.binary {
				fillReport(&g.rep, g.w.userIDs[u], p, &g.lt, stamp)
				g.body, g.tmp = report.AppendBinaryFrame(g.body, g.tmp, &g.rep)
			} else {
				g.body = appendReportJSON(g.body, g.w.userIDs[u], p, &g.lt, stamp)
				g.body = append(g.body, '\n')
			}
		}
		o.contentType = origin.BatchContentType
		if o.binary {
			o.contentType = report.ContentTypeBinaryBatch
		}
		// Batches carry no cookie: each report names its own user, as an
		// edge aggregator's would.
		o.request = g.appendRequest(o.request[:0], "POST", origin.ReportPathV1, "", o.contentType, g.body)
	}
	o.body = o.request[len(o.request)-len(g.body):]
}

// exclusive reports, once the response is in, whether no other exchange of
// the same users overlapped this one from the moment it was drawn: only
// then is the model's state the servers' state, and the response can be
// checked against it.
func (g *opGen) exclusive(o *op) bool {
	return o.alone && g.m.undisturbed(o.users, o.tickets)
}

// spanArcs makes sure a gateway batch has users on both backends, so that
// every batch is split and merged.
func (g *opGen) spanArcs(o *op) {
	first := core.RangeFor(g.w.userIDs[o.users[0]], g.arcs)
	for _, u := range o.users[1:] {
		if core.RangeFor(g.w.userIDs[u], g.arcs) != first {
			return
		}
	}
	for u := (o.users[0] + 1) % len(g.w.userIDs); ; u = (u + 1) % len(g.w.userIDs) {
		if core.RangeFor(g.w.userIDs[u], g.arcs) != first {
			o.users[len(o.users)-1] = u
			return
		}
	}
}

// finish applies the acknowledged reports to the model (ok) and releases
// the users.
func (g *opGen) finish(o *op, ok bool) {
	if ok && o.kind != opPage {
		for k, u := range o.users {
			g.m.acked(u, g.w.pages[o.pages[k]], o.st[k])
		}
	}
	g.m.end(o.users)
}

func (g *opGen) appendRequest(dst []byte, method, path, uid, contentType string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, g.host...)
	dst = append(dst, "\r\n"...)
	if uid != "" {
		dst = append(dst, "Cookie: "+origin.CookieName+"="...)
		dst = append(dst, uid...)
		dst = append(dst, "\r\n"...)
	}
	if method == "POST" {
		dst = append(dst, "Content-Type: "...)
		dst = append(dst, contentType...)
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}
