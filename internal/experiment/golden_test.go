package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var writeFigureGolden = flag.Bool("write-figure-golden", false,
	"rewrite testdata/fig14-table3.golden from this build's output")

// goldenConfigs are the scales the Figure 14 / Table 3 golden pins: the quick
// scale on three seeds, and the mid scale the shape tests share.
var goldenConfigs = []Config{
	{Seed: 1, Quick: true}, {Seed: 2, Quick: true}, {Seed: 3, Quick: true}, midCfg,
}

// TestFig14Table3Golden pins the rendered fig14 and table3 results to bytes a
// reference build wrote: how rule activations are tallied may change, the
// figures may not. (table3 re-sorts with the unstable sort.Slice, so even the
// order the tally hands its rules over shows here.)
func TestFig14Table3Golden(t *testing.T) {
	var got []byte
	for _, cfg := range goldenConfigs {
		for _, id := range []string{"fig14", "table3"} {
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("Run(%s, %+v): %v", id, cfg, err)
			}
			got = fmt.Appendf(got, "### %s seed=%d sites=%d clients=%d quick=%v\n%s\n",
				id, cfg.Seed, cfg.Sites, cfg.Clients, cfg.Quick, res.Render())
		}
	}
	path := filepath.Join("testdata", "fig14-table3.golden")
	if *writeFigureGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("fig14/table3 output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
