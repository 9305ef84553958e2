package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/netsim"
	"oak/internal/obs"
	"oak/internal/rules"
	"oak/internal/stats"
	"oak/internal/webgen"
)

func init() {
	register("table2", runTable2)
	register("fig12", runFig12)
	register("fig13", runFig13)
	register("fig14", runFig14)
	register("table3", runTable3)
}

// The replicated-sites experiment of Section 5.3: ten sites from the
// catalog — five "low-expectation" H1 sites (5–15 external hosts) and five
// "high-expectation" H2 sites (>15) with the best rule-match rates — are
// mirrored behind Oak. External objects stay on their (uncontrolled)
// production providers; replicas of every external object exist in three
// zones (NA/EU/AS) and every matchable domain gets a Type 2 rule whose
// alternatives point at the zone replicas. 25 worldwide clients load each
// site 15 times under three conditions: default, all-rules-forced, and
// normal Oak.

const (
	h12Loads    = 15
	h12Interval = 20 * time.Minute
)

// h12Pair is one (site, client, rule) outcome.
type h12Pair struct {
	h2    bool // site class: false = H1, true = H2
	close bool // client region == site home region
	// correctFrac is the fraction of post-report loads whose rule state
	// matched the oracle.
	correctFrac float64
	// ratio is mean default object time / mean Oak-choice object time,
	// valid only when the rule was activated at least once.
	ratio     float64
	activated bool
}

// h12SiteInfo describes one selected site.
type h12SiteInfo struct {
	domain    string
	h2        bool
	extHosts  int
	matchable float64
	home      netsim.Region
}

// h12Data is the shared outcome of the replicated-sites run.
type h12Data struct {
	pairs []h12Pair
	sites []h12SiteInfo
	// ruleUserFrac lists, per (site, rule), the fraction of the site's
	// users that activated the rule (Figure 14 / Table 3).
	ruleUserFrac []float64
	// ruleStats keeps the per-rule tallies with host names.
	ruleStats []ruleStat
	// ingest/rewrite aggregate engine latency histograms across all
	// per-site engines, surfaced in benchmark output.
	ingest, rewrite obs.Snapshot
}

var (
	h12Mu    sync.Mutex
	h12Cache = map[string]*h12Data{}
)

// ruleStat is one rule's footprint on one site: the fraction of the site's
// reporting users it was ever activated for.
type ruleStat struct {
	ruleID       string
	userFraction float64
}

// ruleTally counts, from the changes each HandleReport returns, the users
// every rule was ever activated for ("activate" or "advance") and every user
// that reported — the footprint Figure 14 and Table 3 plot.
type ruleTally struct {
	reporters map[string]bool
	activated map[string]map[string]bool // rule ID → users
}

func newRuleTally() *ruleTally {
	return &ruleTally{reporters: make(map[string]bool), activated: make(map[string]map[string]bool)}
}

func (t *ruleTally) add(res *core.AnalysisResult) {
	t.reporters[res.UserID] = true
	for _, c := range res.Changes {
		if c.Action != "activate" && c.Action != "advance" {
			continue
		}
		users, ok := t.activated[c.RuleID]
		if !ok {
			users = make(map[string]bool)
			t.activated[c.RuleID] = users
		}
		users[res.UserID] = true
	}
}

// stats returns the per-rule footprints by descending user fraction, then
// rule ID — the order runTable3's unstable sort starts from.
func (t *ruleTally) stats() []ruleStat {
	out := make([]ruleStat, 0, len(t.activated))
	for id, users := range t.activated {
		out = append(out, ruleStat{ruleID: id, userFraction: float64(len(users)) / float64(len(t.reporters))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].userFraction != out[j].userFraction {
			return out[i].userFraction > out[j].userFraction
		}
		return out[i].ruleID < out[j].ruleID
	})
	return out
}

// h12SelectSites picks the H1/H2 site sets from the catalog: within each
// class, the five sites with the highest rule-activation match rate.
func h12SelectSites(catalog []*webgen.Site) (h1, h2 []*webgen.Site) {
	type cand struct {
		site  *webgen.Site
		score float64
	}
	var c1, c2 []cand
	for _, s := range catalog {
		n := len(s.ExternalHosts())
		if n <= 5 {
			continue
		}
		var matchable int
		for _, h := range s.ExternalHosts() {
			if s.Fragments[h] != "" {
				matchable++
			}
		}
		score := float64(matchable) / float64(n)
		switch {
		case n < 15:
			c1 = append(c1, cand{s, score})
		case n > 15:
			c2 = append(c2, cand{s, score})
		}
	}
	pick := func(cs []cand) []*webgen.Site {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].score != cs[j].score {
				return cs[i].score > cs[j].score
			}
			return cs[i].site.Domain < cs[j].site.Domain
		})
		var out []*webgen.Site
		for i := 0; i < len(cs) && i < 5; i++ {
			out = append(out, cs[i].site)
		}
		return out
	}
	return pick(c1), pick(c2)
}

// zoneSelector steers each user to its closest replica zone, implementing
// the paper's "each client is then directed to its closest alternative".
func zoneSelector(r *rules.Rule, _ int, userID string) int {
	z := zoneOf(regionOfClientID(userID))
	if z >= len(r.Alternatives) {
		z = len(r.Alternatives) - 1
	}
	if z < 0 {
		z = 0
	}
	return z
}

// h12Run executes (or returns cached) the replicated-sites experiment.
func h12Run(cfg Config) (*h12Data, error) {
	cfg = cfg.normalized()
	key := fmt.Sprintf("%d/%d/%v", cfg.Seed, cfg.Clients, cfg.Quick)
	h12Mu.Lock()
	defer h12Mu.Unlock()
	if d, ok := h12Cache[key]; ok {
		return d, nil
	}

	g := webgen.NewGenerator(webgen.Config{Seed: cfg.Seed, NumSites: cfg.Sites})
	pool := g.Pool()
	h1Sites, h2Sites := h12SelectSites(g.Catalog())
	if len(h1Sites) == 0 || len(h2Sites) == 0 {
		return nil, fmt.Errorf("h12: catalog too small to select sites (%d H1, %d H2)", len(h1Sites), len(h2Sites))
	}

	data := &h12Data{}
	for si, site := range append(append([]*webgen.Site(nil), h1Sites...), h2Sites...) {
		isH2 := si >= len(h1Sites)
		home := allRegions[si%len(allRegions)]
		if err := h12RunSite(cfg, site, pool, home, isH2, data); err != nil {
			return nil, err
		}
		data.sites = append(data.sites, h12SiteInfo{
			domain: site.Domain, h2: isH2,
			extHosts:  len(site.ExternalHosts()),
			matchable: matchableFrac(site),
			home:      home,
		})
	}
	h12Cache[key] = data
	return data, nil
}

func matchableFrac(site *webgen.Site) float64 {
	hosts := site.ExternalHosts()
	if len(hosts) == 0 {
		return 0
	}
	var m int
	for _, h := range hosts {
		if site.Fragments[h] != "" {
			m++
		}
	}
	return float64(m) / float64(len(hosts))
}

// h12RunSite runs the 15-load, 3-condition protocol for one site and
// appends results to data.
func h12RunSite(cfg Config, site *webgen.Site, pool []webgen.Provider, home netsim.Region, isH2 bool, data *h12Data) error {
	net := netsim.NewNetwork()
	assets, err := registerSiteWorld(net, site, pool, home)
	if err != nil {
		return err
	}
	ruleSet := webgen.BuildRules(site, mirrorZones)
	engine, err := core.NewEngine(ruleSet,
		// MinViolations is the paper's own example policy knob: switching
		// providers is not free, so a rule activates only once its server
		// has violated repeatedly for this user. Four violations filters
		// one-off statistical MAD flags while letting genuinely degraded
		// or client-specific-bad providers through within a few loads.
		core.WithPolicy(core.Policy{SelectAlternative: zoneSelector, MinViolations: 5}),
		core.WithScriptFetcher(assets),
	)
	if err != nil {
		return err
	}

	// Reverse map: any mirrored host -> its default host.
	toDefault := make(map[string]string)
	for _, h := range site.ExternalHosts() {
		for _, zone := range mirrorZones {
			toDefault[webgen.MirrorHost(h, zone)] = h
		}
	}
	hostOf := func(h string) string {
		if d, ok := toDefault[h]; ok {
			return d
		}
		return h
	}
	ruleHost := func(r *rules.Rule) string { return strings.TrimPrefix(r.ID, "swap-") }

	page := site.Index()

	// forcedHTML per zone: every rule applied with that zone's replica.
	forcedHTML := make([]string, len(mirrorZones))
	for z := range mirrorZones {
		acts := make([]rules.Activation, 0, len(ruleSet))
		for _, r := range ruleSet {
			acts = append(acts, rules.Activation{Rule: r, AltIndex: z})
		}
		forcedHTML[z], _ = rules.Apply(page.HTML, page.Path, acts)
	}

	type perRule struct {
		defMs      float64 // summed default-condition object time
		forcedMs   float64 // summed forced-condition object time
		defN       int
		forcedN    int
		oakMs      float64 // oak-condition time while rule active
		oakN       int
		correct    int // loads where oak state matched the oracle
		decisions  int
		activeHist []bool // per-load active state (post-report loads)
	}
	// state[client][ruleID]
	state := make([]map[string]*perRule, cfg.Clients)
	for ci := range state {
		state[ci] = make(map[string]*perRule)
		for _, r := range ruleSet {
			state[ci][r.ID] = &perRule{}
		}
	}

	tally := newRuleTally()
	start := time.Date(2026, 4, 6, 8, 0, 0, 0, time.UTC)
	for li := 0; li < h12Loads; li++ {
		at := start.Add(time.Duration(li) * h12Interval)
		clock := netsim.NewVirtualClock(at)
		for ci := 0; ci < cfg.Clients; ci++ {
			id := clientID(ci, cfg.Clients)
			sc := &client.SimClient{
				ID: id, Region: clientRegion(ci, cfg.Clients),
				Net: net, Assets: assets, Clock: clock,
			}
			zone := zoneOf(clientRegion(ci, cfg.Clients))

			defRes, err := sc.Load(site, page, page.HTML)
			if err != nil {
				return err
			}
			forcedRes, err := sc.Load(site, page, forcedHTML[zone])
			if err != nil {
				return err
			}
			activeNow := make(map[string]bool)
			for _, a := range engine.ActiveRules(id, page.Path) {
				activeNow[a.Rule.ID] = true
			}
			oakHTML, _ := engine.ModifyPage(id, page.Path, page.HTML)
			oakRes, err := sc.Load(site, page, oakHTML)
			if err != nil {
				return err
			}
			res, err := engine.HandleReport(oakRes.Report)
			if err != nil {
				return err
			}
			tally.add(res)

			// Attribute per-host times for each condition.
			sum := func(rep *client.LoadResult) map[string]float64 {
				m := make(map[string]float64)
				for _, e := range rep.Report.Entries {
					m[hostOf(e.Host())] += e.DurationMillis
				}
				return m
			}
			defTimes, forcedTimes, oakTimes := sum(defRes), sum(forcedRes), sum(oakRes)

			for _, r := range ruleSet {
				pr := state[ci][r.ID]
				h := ruleHost(r)
				if t, ok := defTimes[h]; ok {
					pr.defMs += t
					pr.defN++
				}
				if t, ok := forcedTimes[h]; ok {
					pr.forcedMs += t
					pr.forcedN++
				}
				if li >= 1 { // post-report loads carry Oak decisions
					pr.activeHist = append(pr.activeHist, activeNow[r.ID])
					if activeNow[r.ID] {
						if t, ok := oakTimes[h]; ok {
							pr.oakMs += t
							pr.oakN++
						}
					}
				}
			}
		}
	}

	// Oracle + correctness + ratios.
	for ci := 0; ci < cfg.Clients; ci++ {
		closeBy := clientRegion(ci, cfg.Clients) == home
		for _, r := range ruleSet {
			pr := state[ci][r.ID]
			if pr.defN == 0 || pr.forcedN == 0 {
				continue
			}
			oracleEnable := pr.forcedMs/float64(pr.forcedN) < pr.defMs/float64(pr.defN)
			// Figure 12 evaluates the choices Oak actually made: decisions
			// on rules it activated at least once, judged from the first
			// activation onward (before that, Oak had no information about
			// the alternate — the paper's "experiential approach").
			firstActive := -1
			for i, a := range pr.activeHist {
				if a {
					firstActive = i
					break
				}
			}
			if firstActive < 0 {
				continue
			}
			var correct, decisions int
			for _, a := range pr.activeHist[firstActive:] {
				decisions++
				if a == oracleEnable {
					correct++
				}
			}
			if decisions == 0 {
				continue
			}
			pair := h12Pair{
				h2: isH2, close: closeBy,
				correctFrac: float64(correct) / float64(decisions),
				activated:   true,
			}
			if pr.oakN > 0 {
				oakMean := pr.oakMs / float64(pr.oakN)
				defMean := pr.defMs / float64(pr.defN)
				if oakMean > 0 {
					pair.ratio = defMean / oakMean
				}
			}
			data.pairs = append(data.pairs, pair)
		}
	}

	// Per-rule user fractions for this site.
	for _, st := range tally.stats() {
		data.ruleUserFrac = append(data.ruleUserFrac, st.userFraction)
		data.ruleStats = append(data.ruleStats, st)
	}
	lat := engine.Latencies()
	data.ingest = data.ingest.Merge(lat.Ingest)
	data.rewrite = data.rewrite.Merge(lat.Rewrite)
	return nil
}

// conditionName labels the four experiment conditions.
func conditionName(h2, close bool) string {
	class := "H1"
	if h2 {
		class = "H2"
	}
	loc := "Far"
	if close {
		loc = "Close"
	}
	return class + "-" + loc
}

// runTable2 — the selected H1/H2 sites.
func runTable2(cfg Config) (*FigureResult, error) {
	data, err := h12Run(cfg)
	if err != nil {
		return nil, err
	}
	table := Table{
		Title:  "selected sites for low (H1) and high (H2) expected improvement",
		Header: []string{"site", "class", "external hosts", "match rate", "home region"},
	}
	for _, s := range data.sites {
		class := "H1"
		if s.h2 {
			class = "H2"
		}
		table.Rows = append(table.Rows, []string{
			s.domain, class, fmt.Sprintf("%d", s.extHosts),
			fmt.Sprintf("%.2f", s.matchable), string(s.home),
		})
	}
	return &FigureResult{
		ID:     "table2",
		Title:  "Selected sites (paper: 5 sites with 5-15 external hosts, 5 with >15)",
		Tables: []Table{table},
	}, nil
}

// runFig12 — fraction of correct rule choices per condition. Paper: ~80 %
// of H1 choices and ~74 % of H2 choices are entirely correct.
func runFig12(cfg Config) (*FigureResult, error) {
	data, err := h12Run(cfg)
	if err != nil {
		return nil, err
	}
	result := &FigureResult{
		ID:    "fig12",
		Title: "Fraction of correct rule choices, by condition",
	}
	summary := Table{
		Title:  "summary (fraction of (client,rule) pairs fully correct)",
		Header: []string{"condition", "paper", "measured"},
	}
	paper := map[string]string{
		"H1-Close": "~0.80", "H1-Far": "~0.80", "H2-Close": "~0.74", "H2-Far": "~0.74",
	}
	for _, h2 := range []bool{false, true} {
		for _, close := range []bool{true, false} {
			var fracs []float64
			var fullyCorrect, n int
			for _, p := range data.pairs {
				if p.h2 != h2 || p.close != close {
					continue
				}
				fracs = append(fracs, p.correctFrac)
				n++
				if p.correctFrac >= 1 {
					fullyCorrect++
				}
			}
			name := conditionName(h2, close)
			if len(fracs) == 0 {
				continue
			}
			result.Series = append(result.Series, CDFSeries("correct-"+name, fracs, 15))
			summary.Rows = append(summary.Rows, []string{
				name, paper[name], fmt.Sprintf("%.2f (n=%d)", float64(fullyCorrect)/float64(n), n),
			})
		}
	}
	result.Tables = []Table{summary, latencyTable(data.ingest, data.rewrite)}
	return result, nil
}

// runFig13 — default/Oak object-time ratio for protected objects with
// active rules. Paper improvement fractions: H1-Close 57 %, H1-Far 66 %,
// H2-Close 80 %, H2-Far 77 %.
func runFig13(cfg Config) (*FigureResult, error) {
	data, err := h12Run(cfg)
	if err != nil {
		return nil, err
	}
	result := &FigureResult{
		ID:    "fig13",
		Title: "Default/Oak object time ratio for Oak-protected objects with active rules",
	}
	summary := Table{
		Title:  "summary (fraction of cases improved, ratio > 1)",
		Header: []string{"condition", "paper", "measured"},
	}
	paper := map[string]string{
		"H1-Close": "0.57", "H1-Far": "0.66", "H2-Close": "0.80", "H2-Far": "0.77",
	}
	for _, h2 := range []bool{false, true} {
		for _, close := range []bool{true, false} {
			var ratios []float64
			var improved int
			for _, p := range data.pairs {
				if p.h2 != h2 || p.close != close || !p.activated || p.ratio == 0 {
					continue
				}
				ratios = append(ratios, p.ratio)
				if p.ratio > 1 {
					improved++
				}
			}
			name := conditionName(h2, close)
			if len(ratios) == 0 {
				continue
			}
			result.Series = append(result.Series, CDFSeries("ratio-"+name, ratios, 15))
			summary.Rows = append(summary.Rows, []string{
				name, paper[name],
				fmt.Sprintf("%.2f (n=%d)", float64(improved)/float64(len(ratios)), len(ratios)),
			})
		}
	}
	result.Tables = []Table{summary}
	return result, nil
}

// runFig14 — cumulative rule activation by fraction of a site's users.
// Paper: 80 % of rules never account for more than 18 % of their site's
// activations.
func runFig14(cfg Config) (*FigureResult, error) {
	data, err := h12Run(cfg)
	if err != nil {
		return nil, err
	}
	if len(data.ruleUserFrac) == 0 {
		return nil, fmt.Errorf("fig14: no rule activations recorded")
	}
	cdf := stats.NewCDF(data.ruleUserFrac)
	at18 := cdf.At(0.18)
	return &FigureResult{
		ID:     "fig14",
		Title:  "CDF of rules by fraction of users activating them",
		Series: []Series{CDFSeries("user-fraction", data.ruleUserFrac, 21)},
		Tables: []Table{{
			Title:  "summary",
			Header: []string{"metric", "paper", "measured"},
			Rows: [][]string{
				{"rules with <=18% of users", "~0.80", fmt.Sprintf("%.2f", at18)},
			},
		}},
	}, nil
}

// runTable3 — example individual (<18 % of activations) vs common (>18 %)
// provider domains.
func runTable3(cfg Config) (*FigureResult, error) {
	data, err := h12Run(cfg)
	if err != nil {
		return nil, err
	}
	var individual, common []ruleStat
	for _, st := range data.ruleStats {
		if st.userFraction > 0.18 {
			common = append(common, st)
		} else {
			individual = append(individual, st)
		}
	}
	sort.Slice(common, func(i, j int) bool { return common[i].userFraction > common[j].userFraction })
	sort.Slice(individual, func(i, j int) bool { return individual[i].userFraction < individual[j].userFraction })

	table := Table{
		Title:  "individual vs common problem providers",
		Header: []string{"individual (<18%)", "common (>18%)"},
	}
	trim := func(st ruleStat) string {
		return fmt.Sprintf("%s (%.0f%%)", strings.TrimPrefix(st.ruleID, "swap-"), 100*st.userFraction)
	}
	for i := 0; i < 5; i++ {
		var left, right string
		if i < len(individual) {
			left = trim(individual[i])
		}
		if i < len(common) {
			right = trim(common[i])
		}
		if left == "" && right == "" {
			break
		}
		table.Rows = append(table.Rows, []string{left, right})
	}
	return &FigureResult{
		ID:     "table3",
		Title:  "Examples of individually vs commonly activated rules",
		Tables: []Table{table},
		Notes: []string{fmt.Sprintf("%d individual rules, %d common rules across the ten sites",
			len(individual), len(common))},
	}, nil
}
