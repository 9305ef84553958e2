package core

import (
	"bytes"
	"fmt"
	"testing"

	"oak/internal/rules"
)

func TestWithShardsRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
		{maxShards, maxShards}, {maxShards + 1, maxShards},
	}
	for _, c := range cases {
		e, err := NewEngine(nil, WithShards(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.ShardCount(); got != c.want {
			t.Errorf("WithShards(%d): %d shards, want %d", c.in, got, c.want)
		}
	}
	// 0 selects the default, which is a power of two >= 8.
	e, err := NewEngine(nil, WithShards(0))
	if err != nil {
		t.Fatal(err)
	}
	n := e.ShardCount()
	if n < 8 || n&(n-1) != 0 {
		t.Errorf("default shard count %d: want power of two >= 8", n)
	}
}

func TestShardIndexStableAndInRange(t *testing.T) {
	e, err := NewEngine(nil, WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("user-%d", i)
		idx := e.shardIndex(id)
		if idx < 0 || idx >= e.ShardCount() {
			t.Fatalf("shardIndex(%q) = %d out of range", id, idx)
		}
		if idx != e.shardIndex(id) {
			t.Fatalf("shardIndex(%q) not stable", id)
		}
		seen[idx]++
	}
	// 1000 uniform users over 16 shards: every shard should see someone.
	if len(seen) != 16 {
		t.Errorf("only %d of 16 shards populated", len(seen))
	}
}

// TestCrossShardOperations drives users that land on many shards and checks
// every cross-user view still adds up.
func TestCrossShardOperations(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	const users = 40
	for i := 0; i < users; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Users(); got != users {
		t.Errorf("Users() = %d, want %d", got, users)
	}
	a := mustAudit(t, e)
	if a.Users != users {
		t.Errorf("audit users = %d, want %d", a.Users, users)
	}
	if len(a.WorstServers) == 0 || a.WorstServers[0].ServerAddr != "ip-s1.com" {
		t.Fatalf("worst servers = %+v, want ip-s1.com first", a.WorstServers)
	}
	if a.WorstServers[0].Users != users {
		t.Errorf("s1 violating users = %d, want %d", a.WorstServers[0].Users, users)
	}
	if len(a.Rules) != 1 || a.Rules[0].Users != users {
		t.Errorf("rule footprint = %+v, want jquery across %d users", a.Rules, users)
	}
	for i := 0; i < users; i++ {
		snap, ok := e.Snapshot(fmt.Sprintf("u%d", i))
		if !ok || len(snap.ActiveRules) != 1 {
			t.Fatalf("snapshot u%d = %+v ok=%v, want one active rule", i, snap, ok)
		}
	}
}

// TestExportDeterministicAcrossShardCounts: the same user population must
// export byte-identically regardless of how it is sharded, and a state file
// must import cleanly into an engine with a different shard count.
func TestExportDeterministicAcrossShardCounts(t *testing.T) {
	build := func(shards int) *Engine {
		clock := newTestClock()
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithShards(shards), WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("user-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	e1, e16 := build(1), build(16)
	st1, err := e1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st16, err := e16.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st1, st16) {
		t.Fatalf("export differs between 1 and 16 shards:\n%s\n---\n%s", st1, st16)
	}

	// Import the 16-shard export into a 4-shard engine.
	clock := newTestClock()
	e4, err := NewEngine([]*rules.Rule{jqRule(0)}, WithShards(4), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e4.ImportState(st16); err != nil {
		t.Fatal(err)
	}
	if got := e4.Users(); got != 25 {
		t.Errorf("imported users = %d, want 25", got)
	}
	st4, err := e4.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st4, st16) {
		t.Error("re-export after cross-shard-count import differs")
	}
	snap, ok := e4.Snapshot("user-7")
	if !ok || len(snap.ActiveRules) != 1 || snap.ActiveRules[0] != "jquery" {
		t.Errorf("imported snapshot = %+v ok=%v", snap, ok)
	}
}

func TestSingleShardStillIsolatesUsers(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("only")); err != nil {
		t.Fatal(err)
	}
	if got := len(e.ActiveRules("other", "/index.html")); got != 0 {
		t.Errorf("unrelated user has %d active rules", got)
	}
	if got := len(e.ActiveRules("only", "/index.html")); got != 1 {
		t.Errorf("reporting user has %d active rules, want 1", got)
	}
}

func TestPerShardIngestHistograms(t *testing.T) {
	e, err := NewEngine(nil, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const reports = 30
	for i := 0; i < reports; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	lat := e.Latencies()
	if lat.Ingest.Count != reports {
		t.Errorf("merged ingest count = %d, want %d", lat.Ingest.Count, reports)
	}
	if len(lat.IngestShards) != 4 {
		t.Fatalf("got %d shard histograms, want 4", len(lat.IngestShards))
	}
	var sum uint64
	for _, s := range lat.IngestShards {
		sum += s.Count
	}
	if sum != reports {
		t.Errorf("shard counts sum to %d, want %d", sum, reports)
	}
}
