package report

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func groupedReport() *Report {
	return &Report{
		UserID: "u1",
		Page:   "/",
		Entries: []Entry{
			// Two small objects on 10.0.0.2 via two hostnames.
			{URL: "http://cdn.example/a.js", ServerAddr: "10.0.0.2", SizeBytes: 1024, DurationMillis: 100, Kind: KindScript},
			{URL: "http://alt.example/b.js", ServerAddr: "10.0.0.2", SizeBytes: 2048, DurationMillis: 300, Kind: KindScript},
			// One large object on 10.0.0.3: 100 KB in 1 s -> 102400 B/s.
			{URL: "http://img.example/c.jpg", ServerAddr: "10.0.0.3", SizeBytes: 100 * 1024, DurationMillis: 1000, Kind: KindImage},
			// Small + large mix on 10.0.0.4.
			{URL: "http://mix.example/d.css", ServerAddr: "10.0.0.4", SizeBytes: 512, DurationMillis: 50, Kind: KindCSS},
			{URL: "http://mix.example/e.bin", ServerAddr: "10.0.0.4", SizeBytes: 200 * 1024, DurationMillis: 2000},
		},
	}
}

func TestGroupByServer(t *testing.T) {
	servers := GroupByServer(groupedReport())
	if len(servers) != 3 {
		t.Fatalf("got %d servers, want 3", len(servers))
	}
	byAddr := make(map[string]*ServerPerf)
	for _, s := range servers {
		byAddr[s.Addr] = s
	}

	s2 := byAddr["10.0.0.2"]
	if s2 == nil {
		t.Fatal("missing server 10.0.0.2")
	}
	if s2.SmallCount != 2 {
		t.Errorf("10.0.0.2 SmallCount = %d, want 2", s2.SmallCount)
	}
	if math.Abs(s2.SmallMeanTimeMs-200) > 1e-9 {
		t.Errorf("10.0.0.2 SmallMeanTimeMs = %v, want 200", s2.SmallMeanTimeMs)
	}
	if !reflect.DeepEqual(s2.Hosts, []string{"alt.example", "cdn.example"}) {
		t.Errorf("10.0.0.2 Hosts = %v, want sorted [alt.example cdn.example]", s2.Hosts)
	}
	if len(s2.ScriptURLs) != 2 {
		t.Errorf("10.0.0.2 ScriptURLs = %v, want 2 scripts", s2.ScriptURLs)
	}

	s3 := byAddr["10.0.0.3"]
	if s3.LargeCount != 1 || s3.SmallCount != 0 {
		t.Errorf("10.0.0.3 counts = (%d small, %d large), want (0, 1)", s3.SmallCount, s3.LargeCount)
	}
	if math.Abs(s3.LargeMeanTputBps-102400) > 1e-6 {
		t.Errorf("10.0.0.3 LargeMeanTputBps = %v, want 102400", s3.LargeMeanTputBps)
	}

	s4 := byAddr["10.0.0.4"]
	if s4.SmallCount != 1 || s4.LargeCount != 1 {
		t.Errorf("10.0.0.4 counts = (%d, %d), want (1, 1)", s4.SmallCount, s4.LargeCount)
	}
}

func TestGroupByServerSortedAndDeterministic(t *testing.T) {
	a := GroupByServer(groupedReport())
	b := GroupByServer(groupedReport())
	if !reflect.DeepEqual(a, b) {
		t.Error("GroupByServer not deterministic")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Addr >= a[i].Addr {
			t.Errorf("servers not sorted: %q >= %q", a[i-1].Addr, a[i].Addr)
		}
	}
}

func TestGroupByServerFallsBackToHost(t *testing.T) {
	r := &Report{
		UserID: "u",
		Entries: []Entry{
			{URL: "http://noaddr.example/x.js", SizeBytes: 10, DurationMillis: 1},
		},
	}
	servers := GroupByServer(r)
	if len(servers) != 1 || servers[0].Addr != "noaddr.example" {
		t.Errorf("fallback grouping = %+v, want addr noaddr.example", servers)
	}
}

func TestGroupByServerSkipsUnidentifiable(t *testing.T) {
	r := &Report{
		UserID: "u",
		Entries: []Entry{
			{URL: "::not-a-url::", SizeBytes: 10, DurationMillis: 1},
		},
	}
	if servers := GroupByServer(r); len(servers) != 0 {
		t.Errorf("got %d servers for unidentifiable entry, want 0", len(servers))
	}
}

func TestSmallTimesLargeTputs(t *testing.T) {
	servers := GroupByServer(groupedReport())
	smallSubset, times := SmallTimes(servers)
	if len(smallSubset) != 2 || len(times) != 2 {
		t.Fatalf("SmallTimes subset = %d servers, want 2", len(smallSubset))
	}
	for i, s := range smallSubset {
		if times[i] != s.SmallMeanTimeMs {
			t.Errorf("times[%d] = %v, want %v", i, times[i], s.SmallMeanTimeMs)
		}
	}
	largeSubset, tputs := LargeTputs(servers)
	if len(largeSubset) != 2 || len(tputs) != 2 {
		t.Fatalf("LargeTputs subset = %d servers, want 2", len(largeSubset))
	}
}

// entrySet generates random small reports for property testing.
type entrySet []Entry

var _ quick.Generator = entrySet(nil)

func (entrySet) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(size+1)
	es := make(entrySet, n)
	for i := range es {
		es[i] = Entry{
			URL:            fmt.Sprintf("http://h%d.example/o%d", r.Intn(5), i),
			ServerAddr:     fmt.Sprintf("10.0.0.%d", r.Intn(5)),
			SizeBytes:      int64(r.Intn(200 * 1024)),
			DurationMillis: 1 + r.Float64()*1000,
		}
	}
	return reflect.ValueOf(es)
}

// Property: grouping conserves the entry count across servers, and each
// server's ScriptURLs are its script entries' URLs in report order.
func TestQuickGroupingConservesEntries(t *testing.T) {
	f := func(es entrySet) bool {
		for i := range es {
			if i%3 != 1 {
				es[i].Kind = KindScript
			}
		}
		r := &Report{UserID: "u", Entries: es}
		var total int
		for _, s := range GroupByServer(r) {
			total += s.SmallCount + s.LargeCount
			var scripts []string
			for _, e := range es {
				if e.ServerAddr == s.Addr && e.Kind == KindScript {
					scripts = append(scripts, e.URL)
				}
			}
			if !reflect.DeepEqual(s.ScriptURLs, scripts) {
				return false
			}
		}
		return total == len(es)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a view equals the copy Group makes of it, a copy taken earlier
// survives the scratch's reuse, and a Clone shares no memory with the view.
func TestQuickViewIsWhatGroupCopies(t *testing.T) {
	gs := NewGroupScratch()
	var kept []*ServerPerf
	var keptWant []ServerPerf
	f := func(es entrySet) bool {
		for i := range es {
			if i%2 == 0 {
				es[i].Kind = KindScript
			}
		}
		r := &Report{UserID: "u", Entries: es}
		copied := gs.Group(r)
		view := gs.View(r)
		if len(view) != len(copied) {
			return false
		}
		for i, s := range view {
			if !samePerf(*s, *copied[i]) {
				return false
			}
		}
		for i, s := range kept {
			if !samePerf(*s, keptWant[i]) {
				return false
			}
		}
		kept, keptWant = kept[:0], keptWant[:0]
		for _, s := range view {
			want := *s
			want.Hosts = append([]string(nil), s.Hosts...)
			want.ScriptURLs = append([]string(nil), s.ScriptURLs...)
			kept, keptWant = append(kept, s.Clone()), append(keptWant, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// samePerf compares two summaries field by field, an empty slice equal to
// a nil one.
func samePerf(a, b ServerPerf) bool {
	return a.Addr == b.Addr && slices.Equal(a.Hosts, b.Hosts) && slices.Equal(a.ScriptURLs, b.ScriptURLs) &&
		a.SmallCount == b.SmallCount && a.SmallMeanTimeMs == b.SmallMeanTimeMs &&
		a.LargeCount == b.LargeCount && a.LargeMeanTputBps == b.LargeMeanTputBps
}

// Property: every server's mean small time is within the min/max of its own
// entries' durations.
func TestQuickGroupMeansBounded(t *testing.T) {
	f := func(es entrySet) bool {
		r := &Report{UserID: "u", Entries: es}
		for _, s := range GroupByServer(r) {
			if s.SmallCount == 0 {
				continue
			}
			min, max := math.Inf(1), math.Inf(-1)
			for _, e := range es {
				if e.ServerAddr == s.Addr && e.IsSmall() {
					min = math.Min(min, e.DurationMillis)
					max = math.Max(max, e.DurationMillis)
				}
			}
			if s.SmallMeanTimeMs < min-1e-6 || s.SmallMeanTimeMs > max+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round-trip preserves reports exactly (field-for-field).
func TestQuickReportRoundTrip(t *testing.T) {
	f := func(es entrySet) bool {
		r := &Report{UserID: "u", Page: "/p", GeneratedAtUnixMs: 12345, Entries: es}
		data, err := r.Marshal()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return equalDecoded(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
