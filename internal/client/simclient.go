// Package client implements Oak-enabled clients: the report-producing half
// of the system that the paper realised as a modified WebKit/PhantomJS.
//
// SimClient executes page loads against the netsim network and a webgen
// asset universe — the substitution used by the experiment harness.
// HTTPClient (httpclient.go) does the same over real net/http connections
// for the integration tests and examples.
//
// Both clients implement the same load semantics: fetch the (possibly
// Oak-rewritten) page, fetch every resource referenced by a src/href
// attribute, fetch every URL named in inline script text, fetch the URLs
// that fetched loader scripts reference (one layer, like a browser executing
// the script), and finally fetch "hidden" objects that dynamic code selects
// at runtime — connections no static analysis of the page can predict.
package client

import (
	"fmt"
	"sort"
	"time"

	"oak/internal/htmlscan"
	"oak/internal/netsim"
	"oak/internal/report"
	"oak/internal/webgen"
)

// SimClient loads synthetic pages over the simulated network.
type SimClient struct {
	// ID is the client's Oak user identifier (its cookie value).
	ID string
	// Region places the client for propagation delay.
	Region netsim.Region
	// Net is the simulated network all fetches traverse.
	Net *netsim.Network
	// Assets resolves object URLs to sizes/kinds and script URLs to bodies.
	Assets *webgen.Assets
	// Clock supplies the simulated time of each load.
	Clock netsim.Clock
}

// LoadResult is one completed page load.
type LoadResult struct {
	// Report is the performance report the client would POST to Oak.
	Report *report.Report
	// PLT is the effective page load time: the longest dependency chain
	// (loader + dependent object for script-loaded resources, the object
	// itself otherwise).
	PLT time.Duration
}

// Load executes a page load. html is the page markup as delivered (the Oak
// server may have rewritten it); page supplies the ground truth for hidden
// objects, which rules cannot redirect.
func (c *SimClient) Load(site *webgen.Site, page *webgen.Page, html string) (*LoadResult, error) {
	if c.Net == nil || c.Assets == nil {
		return nil, fmt.Errorf("client: SimClient needs Net and Assets")
	}
	now := time.Now()
	if c.Clock != nil {
		now = c.Clock.Now()
	}

	rep := &report.Report{
		UserID:            c.ID,
		Page:              page.Path,
		GeneratedAtUnixMs: now.UnixMilli(),
	}
	fetched := make(map[string]bool)
	// chain tracks the dependency-chain completion time per entry index.
	var chains []time.Duration

	fetch := func(url string, kind report.ObjectKind, prefix time.Duration, initiator string) (time.Duration, error) {
		if fetched[url] {
			return 0, nil
		}
		size, ok := c.Assets.Sizes[url]
		if !ok {
			return 0, fmt.Errorf("client: no such object %q", url)
		}
		host := htmlscan.HostOf(url)
		dur, addr, err := c.Net.Download(netsim.DownloadSpec{
			ClientID:     c.ID,
			ClientRegion: c.Region,
			Host:         host,
			SizeBytes:    size,
			At:           now,
		})
		if err != nil {
			return 0, fmt.Errorf("client: fetch %q: %w", url, err)
		}
		fetched[url] = true
		rep.Entries = append(rep.Entries, report.Entry{
			URL:            url,
			ServerAddr:     addr,
			SizeBytes:      size,
			DurationMillis: float64(dur) / float64(time.Millisecond),
			InitiatorURL:   initiator,
			Kind:           kind,
		})
		chains = append(chains, prefix+dur)
		return dur, nil
	}

	// 1. Direct references (src/href attributes), including loader scripts.
	for _, ref := range htmlscan.ExtractRefs(html) {
		if htmlscan.HostOf(ref.URL) == "" {
			continue // relative: part of the origin page itself
		}
		kind := kindForTag(ref.Tag, c.Assets.Kinds[ref.URL])
		dur, err := fetch(ref.URL, kind, 0, "")
		if err != nil {
			return nil, err
		}
		if ref.Tag == "script" && ref.Attr == "src" {
			// 2. Execute fetched loader scripts: fetch what they reference.
			if body, ok := c.Assets.Scripts[ref.URL]; ok {
				for _, u := range htmlscan.URLsInText(body) {
					if _, err := fetch(u, c.Assets.Kinds[u], dur, ref.URL); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// 3. Inline scripts that construct URLs in text.
	for _, body := range htmlscan.InlineScripts(html) {
		for _, u := range htmlscan.URLsInText(body) {
			if _, err := fetch(u, c.Assets.Kinds[u], 0, ""); err != nil {
				return nil, err
			}
		}
	}

	// 4. Hidden objects: dynamic server selection invisible to page text,
	// always from the canonical provider (rules cannot move these).
	for _, o := range page.Objects {
		if o.Tier != webgen.TierHidden {
			continue
		}
		if _, err := fetch(o.URL, o.Kind, 0, ""); err != nil {
			return nil, err
		}
	}

	var plt time.Duration
	for _, d := range chains {
		if d > plt {
			plt = d
		}
	}
	return &LoadResult{Report: rep, PLT: plt}, nil
}

// kindForTag maps an HTML tag to an object kind, preferring the asset
// universe's record when available.
func kindForTag(tag string, known report.ObjectKind) report.ObjectKind {
	if known != "" {
		return known
	}
	switch tag {
	case "script":
		return report.KindScript
	case "img":
		return report.KindImage
	case "link":
		return report.KindCSS
	default:
		return report.KindOther
	}
}

// RegisterSite registers every default-provider host of a site (origin and
// external) on the network, one simulated server per host, with properties
// drawn deterministically from the host name via the provided builder. It
// returns the registered hosts sorted.
func RegisterSite(net *netsim.Network, site *webgen.Site, build func(host string) *netsim.Server) ([]string, error) {
	hosts := map[string]bool{site.Domain: true}
	for _, h := range site.ExternalHosts() {
		hosts[h] = true
	}
	sorted := make([]string, 0, len(hosts))
	for h := range hosts {
		sorted = append(sorted, h)
	}
	sort.Strings(sorted)
	for _, h := range sorted {
		srv := build(h)
		if srv.Addr == "" {
			srv.Addr = "srv-" + h
		}
		if len(srv.Hosts) == 0 {
			srv.Hosts = []string{h}
		}
		if err := net.AddServer(srv); err != nil {
			return nil, err
		}
	}
	return sorted, nil
}
