package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"oak/internal/report"
	"oak/internal/rules"
	"oak/internal/webgen"
)

// World shape. These are fixed so that what a run costs does not depend on
// the seed: the seed picks providers, object names, fragments, users and
// timings, not how much work an operation is.
const (
	numPages      = 12 // page paths served
	numProviders  = 12 // external providers the site embeds
	reportObjects = 40 // objects in every report, whatever the page
	afflictedPct  = 20 // share of users with one slow provider
	batchReports  = 16 // reports per batch POST
	maxAfflict    = 4  // afflictable providers used per world
	minFragPages  = 4  // an afflictable provider's fragment is on at least this many pages
)

// pageBytes are the padded HTML sizes; page i has size pageBytes[i%3], so
// there are four pages of each.
var pageBytes = [3]int{8 << 10, 32 << 10, 128 << 10}

// mirrorZones are the alternative-provider zones of webgen.BuildRules; a
// first activation selects zone 0 (the engine's linear selector).
var mirrorZones = []string{"na", "eu", "as"}

// object is one entry of a page's report, with its JSON encoding split
// around the one field that changes per report (the duration).
type object struct {
	url, addr       string // as fetched from the default provider
	altURL, altAddr string // as fetched from the provider's zone-0 mirror
	size            int64
	kind            report.ObjectKind
	server          int // index into page.servers
	large           bool
	head, altHead   []byte // `{"url":…,"serverAddr":…,"sizeBytes":N,"durationMillis":`
	tail            []byte // `,"kind":"…"}`
}

// page is one served page and the report a load of it produces.
type page struct {
	path    string
	html    string
	objects []object
	servers []string // distinct hosts contacted, in report order
	// smallSrv / largeSrv list the servers the engine judges on mean
	// small-object time and on mean large-object throughput.
	smallSrv, largeSrv []int
	// hasFrag[k] says whether provider k's rule fragment is in the HTML.
	hasFrag []bool
	// provSrv[k] is provider k's index in servers, or -1.
	provSrv []int
}

// provider is an external provider a user can be afflicted by: slow
// reports about it activate exactly one rule, whose zone-0 alternative
// swaps its fragment for the mirror's.
type provider struct {
	host, mirror string
	ruleID       string
	def, alt     string
}

// world is everything one seed generates: the site the servers are given
// (as files) and what the generator needs to drive and check them.
type world struct {
	seed      int64
	domain    string
	pages     []*page
	rules     []*rules.Rule
	rulesJSON []byte
	providers []provider
	userIDs   []string
	// afflict[u] is the provider index user u is afflicted by, or -1.
	afflict []int8
}

var errNoAfflictable = errors.New("bench: site has no afflictable provider")

// newWorld builds the world for a seed and a user count. The same inputs
// give a byte-identical world.
func newWorld(seed int64, users int) (*world, error) {
	// A site whose tiers leave no cleanly matchable provider is re-drawn
	// from the next sub-seed; the sequence is fixed by the seed.
	var lastErr error
	for try := int64(0); try < 64; try++ {
		w, err := buildWorld(seed, seed*1000003+try, users)
		if err == nil {
			return w, nil
		}
		if !errors.Is(err, errNoAfflictable) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

func buildWorld(seed, siteSeed int64, users int) (*world, error) {
	gen := webgen.NewGenerator(webgen.Config{
		Seed:             siteSeed,
		NumSites:         1,
		PagesPerSite:     numPages,
		MinExternalHosts: numProviders,
		MaxExternalHosts: numProviders,
	})
	site := gen.Site(0)
	ruleSet := webgen.BuildRules(site, mirrorZones)
	rulesJSON, err := rules.MarshalJSON(ruleSet)
	if err != nil {
		return nil, fmt.Errorf("bench: marshal rules: %w", err)
	}
	w := &world{seed: seed, domain: site.Domain, rules: ruleSet, rulesJSON: rulesJSON}
	addrs := serverAddrs(site)
	filler := newRNG(uint64(seed), 0x66696c6c)
	for i, sp := range site.Pages {
		p := &page{path: sp.Path, html: padHTML(sp.HTML, pageBytes[i%3], filler)}
		w.fillObjects(p, sp, addrs)
		w.pages = append(w.pages, p)
	}
	for _, pr := range pickProviders(site, ruleSet) {
		if len(w.providers) < maxAfflict && w.judgedOnTime(pr) {
			w.providers = append(w.providers, pr)
		}
	}
	if len(w.providers) == 0 {
		return nil, errNoAfflictable
	}
	for _, p := range w.pages {
		p.hasFrag = make([]bool, len(w.providers))
		p.provSrv = make([]int, len(w.providers))
		for k, pr := range w.providers {
			p.hasFrag[k] = strings.Contains(p.html, pr.def)
			p.provSrv[k] = slices.Index(p.servers, pr.host)
		}
	}

	w.userIDs = make([]string, users)
	w.afflict = make([]int8, users)
	pick := newRNG(uint64(seed), 0x75736572)
	for u := range w.userIDs {
		w.userIDs[u] = fmt.Sprintf("u%d-%05d", seed, u)
		w.afflict[u] = -1
		if pick.intn(100) < afflictedPct {
			w.afflict[u] = int8(pick.intn(len(w.providers)))
		}
	}
	return w, nil
}

// pickProviders lists the providers whose slowness the engine answers
// with exactly one activation the generator can predict without running
// the matcher: the provider's own rule mentions it, no other rule does, its
// name is not part of another host's, and its fragment appears once on
// enough pages for rewrites to be seen.
func pickProviders(site *webgen.Site, ruleSet []*rules.Rule) []provider {
	hosts := site.ExternalHosts()
	var out []provider
	for _, r := range ruleSet {
		h := strings.TrimPrefix(r.ID, "swap-")
		if !strings.Contains(r.Default, h) || len(r.Alternatives) == 0 || r.Alternatives[0] == r.Default {
			continue
		}
		clean := true
		for _, other := range ruleSet {
			if other != r && strings.Contains(other.Default, h) {
				clean = false
			}
		}
		for _, oh := range hosts {
			if oh != h && (strings.Contains(oh, h) || strings.Contains(h, oh)) {
				clean = false
			}
		}
		onPages := 0
		for _, p := range site.Pages {
			switch strings.Count(p.HTML, r.Default) {
			case 0:
			case 1:
				onPages++
			default:
				clean = false
			}
		}
		if !clean || onPages < minFragPages {
			continue
		}
		out = append(out, provider{
			host: h, mirror: webgen.MirrorHost(h, mirrorZones[0]),
			ruleID: r.ID, def: r.Default, alt: r.Alternatives[0],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].host < out[j].host })
	return out
}

// judgedOnTime reports whether, on every page that embeds the provider, the
// report has a small object from it: then its 2.5–3 s make it a violator on
// mean small-object time whatever else the page fetches. (A provider with
// only large objects is judged on throughput against the other servers
// that have large objects, and with two or fewer of those the MAD
// criterion flags nobody.)
func (w *world) judgedOnTime(pr provider) bool {
	for _, p := range w.pages {
		if !strings.Contains(p.html, pr.def) {
			continue
		}
		si := slices.Index(p.servers, pr.host)
		if si < 0 || !slices.Contains(p.smallSrv, si) {
			return false
		}
	}
	return true
}

// serverAddrs gives every host of the site (and every zone-0 mirror) its
// own address, as a resolving client would report it.
func serverAddrs(site *webgen.Site) map[string]string {
	hosts := append([]string{site.Domain}, site.ExternalHosts()...)
	for _, h := range site.ExternalHosts() {
		hosts = append(hosts, webgen.MirrorHost(h, mirrorZones[0]))
	}
	addrs := make(map[string]string, len(hosts))
	used := make(map[uint32]bool, len(hosts))
	for _, h := range hosts {
		f := fnv.New32a()
		_, _ = f.Write([]byte(h))
		v := f.Sum32() & 0xffffff
		for used[v] {
			v = (v + 1) & 0xffffff
		}
		used[v] = true
		addrs[h] = fmt.Sprintf("10.%d.%d.%d", v>>16, (v>>8)&0xff, v&0xff)
	}
	return addrs
}

// fillObjects derives the page's report from the generated fetch list,
// trimmed or padded with origin objects to exactly reportObjects entries so
// every report costs the same to decode and analyse.
func (w *world) fillObjects(p *page, sp *webgen.Page, addrs map[string]string) {
	objs := append([]webgen.Object(nil), sp.Objects...)
	perHost := make(map[string]int)
	for _, o := range objs {
		perHost[o.Host]++
	}
	// Too many: drop from the end, never a host's last object.
	for i := len(objs) - 1; i >= 0 && len(objs) > reportObjects; i-- {
		if perHost[objs[i].Host] > 1 {
			perHost[objs[i].Host]--
			objs = append(objs[:i], objs[i+1:]...)
		}
	}
	for k := 0; len(objs) < reportObjects; k++ {
		objs = append(objs, webgen.Object{
			URL:  fmt.Sprintf("http://%s/static/pad%s-%d.png", w.domain, strings.TrimSuffix(strings.ReplaceAll(p.path, "/", "-"), ".html"), k),
			Host: w.domain, SizeBytes: int64(2048 + 512*k), Kind: report.KindImage,
		})
	}

	srvIdx := make(map[string]int)
	small := make(map[int]bool)
	large := make(map[int]bool)
	for _, o := range objs {
		si, ok := srvIdx[o.Host]
		if !ok {
			si = len(p.servers)
			srvIdx[o.Host] = si
			p.servers = append(p.servers, o.Host)
		}
		ob := object{
			url: o.URL, addr: addrs[o.Host], altURL: o.URL, altAddr: addrs[o.Host],
			size: o.SizeBytes, kind: o.Kind, server: si,
			large: o.SizeBytes >= report.SmallObjectThreshold,
		}
		if m, ok := addrs[webgen.MirrorHost(o.Host, mirrorZones[0])]; ok {
			ob.altURL = strings.Replace(o.URL, "//"+o.Host+"/", "//"+webgen.MirrorHost(o.Host, mirrorZones[0])+"/", 1)
			ob.altAddr = m
		}
		ob.head = entryHead(ob.url, ob.addr, ob.size)
		ob.altHead = entryHead(ob.altURL, ob.altAddr, ob.size)
		ob.tail = []byte(`,"kind":` + strconv.Quote(string(ob.kind)) + `}`)
		if ob.large {
			large[si] = true
		} else {
			small[si] = true
		}
		p.objects = append(p.objects, ob)
	}
	for si := range p.servers {
		if small[si] {
			p.smallSrv = append(p.smallSrv, si)
		}
		if large[si] {
			p.largeSrv = append(p.largeSrv, si)
		}
	}
}

func entryHead(url, addr string, size int64) []byte {
	return []byte(`{"url":` + strconv.Quote(url) + `,"serverAddr":` + strconv.Quote(addr) +
		`,"sizeBytes":` + strconv.FormatInt(size, 10) + `,"durationMillis":`)
}

var fillerWords = strings.Fields(`oak page content paragraph section article notes
	update summary detail figure table result latency report server client cache
	provider mirror region performance measure window median sample steady load`)

// padHTML grows html to exactly size bytes with plain-text paragraphs
// before </body>; the filler never contains markup a rule could match.
func padHTML(html string, size int, r *rng) string {
	const closing = "</body>\n</html>\n"
	var b strings.Builder
	b.Grow(size)
	b.WriteString(strings.TrimSuffix(html, closing))
	for size-b.Len()-len(closing) > 160 {
		b.WriteString("<p>")
		for n := 0; n < 12; n++ {
			b.WriteString(fillerWords[r.intn(len(fillerWords))])
			b.WriteByte(' ')
		}
		b.WriteString("</p>\n")
	}
	// One last paragraph of exactly the remaining length ("<p></p>\n" is 8).
	if rem := size - b.Len() - len(closing); rem >= 8 {
		b.WriteString("<p>" + strings.Repeat("x", rem-8) + "</p>\n")
	} else if rem > 0 {
		b.WriteString(strings.Repeat(" ", rem))
	}
	return b.String() + closing
}

// writeSite writes the pages and the rule file the servers are started
// with, and returns the root directory and the rule file path.
func (w *world) writeSite(dir string) (root, rulesPath string, err error) {
	root = filepath.Join(dir, "site")
	for _, p := range w.pages {
		path := filepath.Join(root, filepath.FromSlash(p.path))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return "", "", fmt.Errorf("bench: write site: %w", err)
		}
		if err := os.WriteFile(path, []byte(p.html), 0o644); err != nil {
			return "", "", fmt.Errorf("bench: write site: %w", err)
		}
	}
	rulesPath = filepath.Join(dir, "rules.json")
	if err := os.WriteFile(rulesPath, w.rulesJSON, 0o644); err != nil {
		return "", "", fmt.Errorf("bench: write rules: %w", err)
	}
	return root, rulesPath, nil
}

// User states of the generator's per-user model.
const (
	stHealthy uint32 = iota // never afflicted, or afflicted and not yet reported
	stPending               // afflicted: the next report about the provider is slow
	stActive                // the engine holds the provider's rule active
)

// loadTimes is one page load as a client measured it: a duration per
// object and whether the object came from the mirror.
type loadTimes struct {
	dur  []float64
	alt  []bool
	perm []int
	tSrv []float64 // per server: small-object time, ms
	bSrv []float64 // per server: large-object throughput, B/s
}

// spread is the k-th of n values in [-1,1], symmetric about 0 and
// root-spaced, so that whatever n is, the largest deviation from the
// median stays under twice the median deviation: a load whose servers are
// timed by spread has no MAD violator (k = 2).
func spread(k, n int) float64 {
	if n < 2 {
		return 0
	}
	c := (float64(k) - float64(n-1)/2) / (float64(n-1) / 2)
	if c < 0 {
		return -math.Sqrt(-c)
	}
	return math.Sqrt(c)
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// drawLoad draws the timings of one load of p by a user in state st who is
// afflicted by provider prov (-1: none). Healthy servers sit at 60–140 ms
// (large objects at 2.8–5.2 MB/s) with no violator; a pending user's
// provider takes 2.5–3 s per object, which makes it the only violator; an
// active user fetches the provider's objects from the mirror.
func drawLoad(lt *loadTimes, p *page, r *rng, prov int, st uint32) {
	n := len(p.objects)
	if cap(lt.dur) < n {
		lt.dur, lt.alt = make([]float64, n), make([]bool, n)
	}
	lt.dur, lt.alt = lt.dur[:n], lt.alt[:n]
	if cap(lt.tSrv) < len(p.servers) {
		lt.tSrv, lt.bSrv = make([]float64, len(p.servers)), make([]float64, len(p.servers))
	}
	lt.tSrv, lt.bSrv = lt.tSrv[:len(p.servers)], lt.bSrv[:len(p.servers)]

	slow, mirrored := -1, -1
	if prov >= 0 && p.hasFrag[prov] {
		switch st {
		case stPending:
			slow = p.provSrv[prov]
		case stActive:
			mirrored = p.provSrv[prov]
		}
	}
	assign := func(srv []int, set func(si int, s float64)) {
		lt.perm = lt.perm[:0]
		for _, si := range srv {
			if si != slow {
				lt.perm = append(lt.perm, si)
			}
		}
		for i := len(lt.perm) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			lt.perm[i], lt.perm[j] = lt.perm[j], lt.perm[i]
		}
		for k, si := range lt.perm {
			set(si, spread(k, len(lt.perm)))
		}
	}
	assign(p.smallSrv, func(si int, s float64) { lt.tSrv[si] = 100 + 40*s })
	assign(p.largeSrv, func(si int, s float64) { lt.bSrv[si] = 4e6 * (1 + 0.3*s) })
	slowMs := 2500 + 500*r.float64()
	for i := range p.objects {
		o := &p.objects[i]
		lt.alt[i] = o.server == mirrored
		switch {
		case o.server == slow:
			lt.dur[i] = round3(slowMs)
		case o.large:
			lt.dur[i] = round3(float64(o.size) / lt.bSrv[o.server] * 1000)
		default:
			lt.dur[i] = round3(lt.tSrv[o.server])
		}
	}
}

// appendReportJSON appends the JSON report of one load.
func appendReportJSON(dst []byte, uid string, p *page, lt *loadTimes, stamp int64) []byte {
	dst = append(dst, `{"userId":"`...)
	dst = append(dst, uid...)
	dst = append(dst, `","page":"`...)
	dst = append(dst, p.path...)
	dst = append(dst, `","generatedAtUnixMs":`...)
	dst = strconv.AppendInt(dst, stamp, 10)
	dst = append(dst, `,"entries":[`...)
	for i := range p.objects {
		o := &p.objects[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		if lt.alt[i] {
			dst = append(dst, o.altHead...)
		} else {
			dst = append(dst, o.head...)
		}
		dst = strconv.AppendFloat(dst, lt.dur[i], 'f', -1, 64)
		dst = append(dst, o.tail...)
	}
	return append(dst, "]}"...)
}

// fillReport builds the same load as a report struct (for the binary wire
// format and for in-process replay).
func fillReport(rep *report.Report, uid string, p *page, lt *loadTimes, stamp int64) {
	rep.UserID, rep.Page, rep.GeneratedAtUnixMs = uid, p.path, stamp
	rep.Entries = rep.Entries[:0]
	for i := range p.objects {
		o := &p.objects[i]
		e := report.Entry{URL: o.url, ServerAddr: o.addr, SizeBytes: o.size, DurationMillis: lt.dur[i], Kind: o.kind}
		if lt.alt[i] {
			e.URL, e.ServerAddr = o.altURL, o.altAddr
		}
		rep.Entries = append(rep.Entries, e)
	}
}

// rng is a splitmix64 stream: cheap, seedable per operation, and the same
// on every platform.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{}
	r.reset(seed, stream, 0)
	return r
}

// reset positions the stream at (seed, stream, index) so an operation's
// draws depend only on which operation it is.
func (r *rng) reset(seed, stream, index uint64) {
	r.s = seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ index*0x94d049bb133111eb
	r.next()
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
