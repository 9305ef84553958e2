package flagdoc

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseReadsWhatTheFlagPackageHolds: for a flag of every type PrintDefaults
// names, at a zero and a non-zero default, Parse of the listing gives back
// each flag's name and DefValue.
func TestParseReadsWhatTheFlagPackageHolds(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.String("addr", ":8080", "listen address")
	fs.String("dir", "", "a directory\nover two lines")
	fs.Bool("v", false, "verbose")
	fs.Bool("on", true, "on by default")
	fs.Int("n", 0, "a count (0 = unbounded)")
	fs.Int64("bytes", 4<<20, "a size")
	fs.Uint("u", 7, "unsigned")
	fs.Float64("factor", 1.5, "a factor")
	fs.Float64("q", 0, "a quantile")
	fs.Duration("wait", -1, "a wait")
	fs.Duration("every", 5*time.Minute, "an interval")
	fs.Duration("off", 0, "off by default")
	var out bytes.Buffer
	fs.SetOutput(&out)
	fs.PrintDefaults()

	var want []Flag
	fs.VisitAll(func(f *flag.Flag) { want = append(want, Flag{f.Name, f.DefValue}) })
	got, err := Parse("Usage of cmd:\n" + out.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Parse:\n got %v\nwant %v\nfrom\n%s", got, want, out.String())
	}
}

func TestCheck(t *testing.T) {
	doc := strings.Join([]string{
		"# Tool",
		"",
		"## Flags",
		"",
		"| Flag | Default | Meaning |",
		"|---|---|---|",
		"| `-addr` | `:8080` | listen address |",
		"| `-wait` | `-1` (off) | a wait |",
		"| `-v` | off | verbose |",
		"| `-gone` | `0` | removed |",
		"| `-v` | off | twice |",
		"",
		"| `-after` | `1` | another table |",
	}, "\n")
	rows, err := Rows(doc, "## Flags")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows %v, want the five of the first table", rows)
	}
	flags := []Flag{{"addr", ":8080"}, {"wait", "-1ns"}, {"v", "false"}, {"every", "5m0s"}}
	want := []string{
		"-wait: the table's default is `-1`, the flag's is `-1ns`",
		"row \"`-gone`\" names no flag",
		"-v has 2 rows, want 1",
		"-every has 0 rows, want 1",
	}
	if got := Check(flags, rows); !reflect.DeepEqual(got, want) {
		t.Errorf("Check:\n got %q\nwant %q", got, want)
	}
	if _, err := Rows(doc, "## Options"); err == nil {
		t.Error("Rows found a table under a heading the doc lacks")
	}
}
