package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// spanMetrics turns the recorded spans into the per-layer timing metrics
// and the stage table.
func (lr *layerRun) spanMetrics(spans []span) {
	m := lr.res.Metrics
	self := selfTimes(spans)
	kindOf := map[int64]string{}
	for i := range spans {
		if spans[i].Name == "client" {
			kindOf[spans[i].Req] = spans[i].Tag
		}
	}
	// us collects durations (self: self times) in µs of the spans keep
	// selects.
	us := func(useSelf bool, keep func(s *span) bool) []float64 {
		var out []float64
		for i := range spans {
			if keep(&spans[i]) {
				v := spans[i].dur()
				if useSelf {
					v = self[i]
				}
				out = append(out, float64(v)/1e3)
			}
		}
		return out
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	named := func(name, kind string) func(*span) bool {
		return func(s *span) bool { return s.Name == name && (kind == "" || kindOf[s.Req] == kind) }
	}
	tagged := func(name, tag string) func(*span) bool {
		return func(s *span) bool { return s.Name == name && s.Tag == tag }
	}

	m["nethttp.report_self_us"] = med(us(true, named("client", "report")))
	m["nethttp.page_self_us"] = med(us(true, named("client", "page")))
	m["origin.report_us"] = med(us(false, named("origin", "report")))
	m["origin.report_self_us"] = med(us(true, named("origin", "report")))
	m["origin.page_us"] = med(us(false, named("origin", "page")))
	m["origin.page_self_us"] = med(us(true, named("origin", "page")))
	m["gateway.report_added_us"] = med(us(true, named("gateway", "report")))
	m["gateway.page_added_us"] = med(us(true, named("gateway", "page")))
	m["gateway.batch_added_us_per_report"] = med(us(true, named("gateway", "batch"))) / batchReports
	perBatch := map[int64]float64{}
	for i := range spans {
		if s := &spans[i]; s.Name == "origin" && kindOf[s.Req] == "batch" {
			perBatch[s.Req] += float64(s.dur()) / 1e3 / batchReports
		}
	}
	var batchUs []float64
	for _, v := range perBatch {
		batchUs = append(batchUs, v)
	}
	m["origin.batch_us_per_report"] = med(batchUs)

	m["report.decode_json_us"] = med(us(false, named("report.decode_json", "")))
	m["report.decode_binary_us"] = med(us(false, named("report.decode_binary", "")))
	m["core.ingest_us"] = med(us(false, named("core.ingest", "")))
	m["core.analyze_us"] = med(us(false, named("core.analyze", "")))
	m["stats.mad_ns"] = med(us(false, named("stats.mad", ""))) * 1e3
	m["core.fingerprint_ns"] = med(us(false, named("core.fingerprint", ""))) * 1e3
	m["core.rewrite_hit_us"] = med(us(false, tagged("core.rewrite", "hit")))
	m["core.rewrite_miss_us"] = med(us(false, tagged("core.rewrite", "miss")))
	if lr.wl.topo == topoSpill {
		resident := us(false, func(s *span) bool { return s.Name == "core.rewrite" && s.Tag != "cold" })
		m["core.rehydrate_us"] = med(us(false, tagged("core.rewrite", "cold"))) - med(resident)
		m["core.ingest_at_cap_us"] = m["core.ingest_us"]
	}
	m["rules.compile_us"] = med(us(false, named("rules.compile", "")))
	m["rules.apply_us"] = med(us(false, named("rules.apply", "")))
	m["rules.apply_sequential_us"] = med(us(false, named("rules.apply_sequential", "")))
	var perKB []float64
	for i := range spans {
		if s := &spans[i]; s.Name == "rules.apply" {
			var kb float64
			if _, err := fmt.Sscan(s.Tag, &kb); err == nil && kb > 0 {
				perKB = append(perKB, float64(s.dur())/kb)
			}
		}
	}
	m["rules.apply_ns_per_kb"] = med(perKB)

	// Do the replayed children fit inside the origin span they explain?
	fit, total := 0, 0
	for i := range spans {
		if s := &spans[i]; s.Name == "origin" && (kindOf[s.Req] == "report" || kindOf[s.Req] == "page") {
			total++
			if self[i] >= 0 {
				fit++
			}
		}
	}
	if total > 0 {
		lr.res.FitFrac = float64(fit) / float64(total)
	}

	// The stage table: per kind, where the round trip goes. Means, so that
	// the parts add up to the whole exactly; over the fastest 95 % of the
	// kind's requests, so that a stalled request does not set them.
	type parts struct{ rtt, nethttp, gateway, origin, decode, core, rules float64 }
	per := map[int64]*parts{}
	for i := range spans {
		s := &spans[i]
		if s.Req < 0 {
			continue
		}
		p := per[s.Req]
		if p == nil {
			p = &parts{}
			per[s.Req] = p
		}
		d, sf := float64(s.dur())/1e3, float64(self[i])/1e3
		switch s.Name {
		case "client":
			p.rtt, p.nethttp = d, sf
		case "gateway":
			p.gateway += sf
		case "origin":
			p.origin += sf
		case "report.decode_json", "report.decode_binary":
			p.decode += d
		case "core.ingest", "core.analyze", "stats.mad", "core.rewrite", "core.fingerprint":
			p.core += sf
		case "rules.apply":
			p.rules += d
		}
	}
	for _, kind := range []string{"report", "page", "batch"} {
		var reqs []*parts
		for req, p := range per {
			if kindOf[req] == kind {
				reqs = append(reqs, p)
			}
		}
		if len(reqs) == 0 {
			continue
		}
		sort.Slice(reqs, func(a, b int) bool { return reqs[a].rtt < reqs[b].rtt })
		reqs = reqs[:len(reqs)-len(reqs)/20]
		row := stageRow{Kind: kind, Ops: len(reqs)}
		for _, p := range reqs {
			n := float64(len(reqs))
			row.RoundTrip += p.rtt / n
			row.NetHTTP += p.nethttp / n
			row.Gateway += p.gateway / n
			row.Origin += p.origin / n
			row.Decode += p.decode / n
			row.Core += p.core / n
			row.Rules += p.rules / n
		}
		lr.res.Stages = append(lr.res.Stages, row)
	}
}

// printLayers prints one traced run: the stage table, then every per-layer
// metric by name with its unit.
func printLayers(out io.Writer, r *layerResult) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "\n== %s  traced in-process run  seed %d  %d traced ops, %d spans -> %s (%.0f s wall)\n",
		r.Workload, r.Seed, r.Ops, r.Spans, r.TraceFile, r.WallS)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "stage table (mean us)\tround trip\tnethttp\tgateway self\torigin self\treport decode\tcore\trules\tsum\tops")
	for _, s := range r.Stages {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\n", s.Kind, s.RoundTrip, s.NetHTTP, s.Gateway, s.Origin,
			s.Decode, s.Core, s.Rules, s.NetHTTP+s.Gateway+s.Origin+s.Decode+s.Core+s.Rules, s.Ops)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "replayed children fit inside their origin span for %.1f %% of reports and pages\n", 100*r.FitFrac)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, lm := range layerMetrics {
		units[lm.name] = lm.unit
	}
	tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for i := 0; i < len(names); i += 2 {
		fmt.Fprintf(tw, "%s\t%.4g\t%s", names[i], r.Metrics[names[i]], units[names[i]])
		if i+1 < len(names) {
			fmt.Fprintf(tw, "\t%s\t%.4g\t%s", names[i+1], r.Metrics[names[i+1]], units[names[i+1]])
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}
