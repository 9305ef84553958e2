package report

import (
	"slices"
	"strings"
	"sync"
)

// ServerPerf is the server-oriented view Oak derives from a report: all
// objects fetched from one server address, summarised per the paper's
// small/large split. "These reports make no decisions on what objects may
// need to be acted on, but instead store the raw information about the
// observed performance" — decisions happen later, in core.
//
// A ServerPerf from GroupByServer, Group or Clone owns its memory; one from
// GroupScratch.View lives in the scratch and is valid until its next use.
type ServerPerf struct {
	// Addr is the server address (paper: IP) the client connected to.
	Addr string
	// Hosts are all domain names that resolved to this server during the
	// load, sorted. Rule matching works on these names.
	Hosts []string
	// SmallCount and SmallMeanTimeMs summarise objects under the 50 KB
	// threshold: the count and the mean download time (milliseconds).
	SmallCount      int
	SmallMeanTimeMs float64
	// LargeCount and LargeMeanTputBps summarise objects at or over the
	// threshold: the count and mean achieved throughput (bytes/second).
	LargeCount       int
	LargeMeanTputBps float64
	// ScriptURLs are the URLs of the external scripts fetched from this
	// server, in report order; the rule matcher's external-JavaScript pass
	// walks these.
	ScriptURLs []string
}

// HasHost reports whether the given hostname resolved to this server.
func (s *ServerPerf) HasHost(host string) bool {
	for _, h := range s.Hosts {
		if h == host {
			return true
		}
	}
	return false
}

// Clone returns a copy of s that shares no memory with it: how a summary
// from GroupScratch.View outlives the scratch.
func (s *ServerPerf) Clone() *ServerPerf {
	c := *s
	slab := make([]string, 0, len(s.Hosts)+len(s.ScriptURLs))
	c.Hosts, slab = slabCopy(slab, s.Hosts)
	c.ScriptURLs, _ = slabCopy(slab, s.ScriptURLs)
	return &c
}

// GroupScratch holds the working memory of GroupByServer: the per-server
// summaries themselves, their host and script lists, and the sorted
// pointer slice over them, all reused from report to report. View groups
// into that memory and allocates nothing once it has grown to the largest
// report seen; Group copies the view out into three exact-size slabs the
// caller keeps. The zero value is ready to use. A GroupScratch is not safe
// for concurrent use; pool one per worker, or use the package-level
// GroupByServer which draws from a shared pool.
type GroupScratch struct {
	byAddr  map[string]int // addr → index into servers
	servers []ServerPerf
	sorted  []*ServerPerf
}

// NewGroupScratch returns an empty grouping scratch.
func NewGroupScratch() *GroupScratch {
	return new(GroupScratch)
}

var groupScratchPool = sync.Pool{New: func() any { return NewGroupScratch() }}

// GroupByServer folds a report into per-server performance summaries,
// implementing Section 4.2's grouping: objects are grouped by the address
// the client ultimately connected to, keeping track of all related domain
// names; small objects contribute their mean time, large objects their mean
// throughput. The result is sorted by address for determinism.
func GroupByServer(r *Report) []*ServerPerf {
	gs := groupScratchPool.Get().(*GroupScratch)
	out := gs.Group(r)
	groupScratchPool.Put(gs)
	return out
}

// linearAccLimit is the server count below which the grouping finds an
// entry's summary by scanning instead of hashing: typical reports touch a
// handful of servers, and comparing a few short strings beats a map lookup
// plus the hash. Past the limit the scratch migrates every summary into its
// map and stays there for the rest of the report.
const linearAccLimit = 12

// Group is GroupByServer against this scratch: View, copied out. The
// returned summaries are freshly allocated and safe to retain; the scratch
// is immediately reusable.
func (gs *GroupScratch) Group(r *Report) []*ServerPerf {
	view := gs.View(r)
	total := 0
	for _, s := range view {
		total += len(s.Hosts) + len(s.ScriptURLs)
	}
	out := make([]*ServerPerf, len(view))
	structs := make([]ServerPerf, len(view))
	slab := make([]string, 0, total)
	for i, s := range view {
		sp := &structs[i]
		*sp = *s
		sp.Hosts, slab = slabCopy(slab, s.Hosts)
		sp.ScriptURLs, slab = slabCopy(slab, s.ScriptURLs)
		out[i] = sp
	}
	return out
}

// View groups r as GroupByServer does, into the scratch's own memory: the
// summaries, their slices and the returned slice are valid until the
// scratch's next use, and must not be retained past it (Clone one to keep
// it).
func (gs *GroupScratch) View(r *Report) []*ServerPerf {
	if len(gs.byAddr) != 0 {
		clear(gs.byAddr)
	}
	useMap := false
	gs.servers = gs.servers[:0]
	for i := range r.Entries {
		e := &r.Entries[i]
		addr := e.ServerAddr
		if addr == "" {
			// Fall back to the hostname when the client did not record an
			// address (pure-simulation clients identify servers by name).
			addr = e.Host()
		}
		if addr == "" {
			continue
		}
		ai := -1
		if useMap {
			if j, ok := gs.byAddr[addr]; ok {
				ai = j
			}
		} else {
			for j := range gs.servers {
				if gs.servers[j].Addr == addr {
					ai = j
					break
				}
			}
		}
		if ai < 0 {
			ai = len(gs.servers)
			if ai < cap(gs.servers) {
				// Reuse the summary's host and script arrays.
				gs.servers = gs.servers[:ai+1]
				s := &gs.servers[ai]
				*s = ServerPerf{Addr: addr, Hosts: s.Hosts[:0], ScriptURLs: s.ScriptURLs[:0]}
			} else {
				gs.servers = append(gs.servers, ServerPerf{Addr: addr})
			}
			switch {
			case useMap:
				gs.byAddr[addr] = ai
			case len(gs.servers) > linearAccLimit:
				useMap = true
				if gs.byAddr == nil {
					gs.byAddr = make(map[string]int, 2*linearAccLimit)
				}
				for j := range gs.servers {
					gs.byAddr[gs.servers[j].Addr] = j
				}
			}
		}
		s := &gs.servers[ai]
		if host := e.Host(); host != "" && !slices.Contains(s.Hosts, host) {
			s.Hosts = append(s.Hosts, host)
		}
		if e.Kind == KindScript {
			s.ScriptURLs = append(s.ScriptURLs, e.URL)
		}
		if e.IsSmall() {
			// Incremental mean keeps this single-pass.
			s.SmallCount++
			s.SmallMeanTimeMs += (e.DurationMillis - s.SmallMeanTimeMs) / float64(s.SmallCount)
		} else {
			s.LargeCount++
			s.LargeMeanTputBps += (e.ThroughputBps() - s.LargeMeanTputBps) / float64(s.LargeCount)
		}
	}
	gs.sorted = gs.sorted[:0]
	for i := range gs.servers {
		slices.Sort(gs.servers[i].Hosts)
		gs.sorted = append(gs.sorted, &gs.servers[i])
	}
	// Sort the pointer slice, not the summaries: moving whole structs
	// around showed up as pure copy cost in ingest profiles.
	slices.SortFunc(gs.sorted, func(x, y *ServerPerf) int { return strings.Compare(x.Addr, y.Addr) })
	return gs.sorted
}

// slabCopy appends src to the slab and returns the full-capacity-clipped
// sub-slice holding the copy (nil when src is empty, matching the appends
// the pre-slab grouping produced).
func slabCopy(slab, src []string) ([]string, []string) {
	if len(src) == 0 {
		return nil, slab
	}
	start := len(slab)
	slab = append(slab, src...)
	return slab[start:len(slab):len(slab)], slab
}

// SmallTimes extracts the small-object mean times (ms) of servers that have
// small objects, parallel to the returned server subset.
func SmallTimes(servers []*ServerPerf) (subset []*ServerPerf, times []float64) {
	for _, s := range servers {
		if s.SmallCount > 0 {
			subset = append(subset, s)
			times = append(times, s.SmallMeanTimeMs)
		}
	}
	return subset, times
}

// LargeTputs extracts the large-object mean throughputs (B/s) of servers
// that have large objects, parallel to the returned server subset.
func LargeTputs(servers []*ServerPerf) (subset []*ServerPerf, tputs []float64) {
	for _, s := range servers {
		if s.LargeCount > 0 {
			subset = append(subset, s)
			tputs = append(tputs, s.LargeMeanTputBps)
		}
	}
	return subset, tputs
}
