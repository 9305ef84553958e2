package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
	"oak/internal/wire"
)

// bootedWorldResident is how many of writeSpilledWorld's users are resident:
// three quarters of the 2,000 cap, so no shard is over its share and a boot on
// the world evicts nothing — every boot reads the same files.
const bootedWorldResident = 1500

// bootedWorldEngine boots the capped engine writeSpilledWorld's files are
// for: eight shards, 2,000 resident profiles, and a guard, as oakd has.
func bootedWorldEngine(tb testing.TB, dir string, opts ...Option) *Engine {
	tb.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, append([]Option{WithShards(8),
		WithClock(func() time.Time { return time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC) }),
		WithGuard(GuardConfig{}), WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 2000})}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// writeSpilledWorld is the directory a capped oakd leaves after each of users
// users reported once, a fifth of them with an activation, as the benchmark's
// spill_churn world holds after a run: it writes one record for each but the
// last bootedWorldResident straight into eight segment files, a shard's
// records to a segment; boots on them; has the last users report, which makes
// them resident; and saves a checkpoint. It returns the spill directory and
// the state file.
func writeSpilledWorld(tb testing.TB, users int) (dir, state string) {
	tb.Helper()
	root := tb.TempDir()
	dir, state = filepath.Join(root, "spill"), filepath.Join(root, "state.json")
	if err := os.Mkdir(dir, 0o700); err != nil {
		tb.Fatal(err)
	}
	segs := make([][]byte, 8)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < users-bootedWorldResident; i++ {
		pp := persistedProfile{UserID: fmt.Sprintf("user-%07d", i), Violations: map[string]int{"ip-s1.com": 1},
			LastReport: at.Add(time.Duration(i) * time.Millisecond), Version: 1}
		if i%5 == 0 {
			pp.Active = []persistedActivation{{RuleID: "jquery", ActivatedAt: pp.LastReport, TriggerServer: "ip-s1.com", TriggerDistance: 1900, Activations: 1}}
		}
		s := userHash(pp.UserID) & 7
		if segs[s] == nil {
			segs[s] = []byte(seglog.Magic)
		}
		segs[s] = wire.AppendFrame(segs[s], encodeSpillRecord(nil, &pp))
	}
	for i, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%016x.seg", i+1)), data, 0o600); err != nil {
			tb.Fatal(err)
		}
	}
	e := bootedWorldEngine(tb, dir)
	for i := users - bootedWorldResident; i < users; i++ {
		if _, err := e.HandleReport(healthyReport(fmt.Sprintf("user-%07d", i))); err != nil {
			tb.Fatal(err)
		}
	}
	e.Close()
	if err := e.SaveStateFile(state); err != nil {
		tb.Fatal(err)
	}
	return dir, state
}

// BenchmarkBootCapped is a restart of a capped engine — NewEngine over the
// segment directory, then LoadStateFile — at 20,000 and 200,000 users under
// one resident cap. Boots write nothing, so every iteration reads the same
// files. recover_ms and load_ms are BootStatus's halves of the last boot,
// records_read the reads of one record each boots make (recordReads).
func BenchmarkBootCapped(b *testing.B) {
	for _, users := range []int{20000, 200000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			dir, state := writeSpilledWorld(b, users)
			fs, reads := recordReads(b, dir)
			b.ResetTimer()
			var bs BootStatus
			for i := 0; i < b.N; i++ {
				e := bootedWorldEngine(b, dir, withFS(fs))
				if _, err := e.LoadStateFile(state); err != nil {
					b.Fatal(err)
				}
				bs = e.BootStatus()
				e.Close()
			}
			b.ReportMetric(float64(bs.Recover.Microseconds())/1000, "recover_ms")
			b.ReportMetric(float64(bs.Load.Microseconds())/1000, "load_ms")
			b.ReportMetric(reads(b.N), "records_read/boot")
		})
	}
}

// recordReads is a file seam that counts the reads of dir's segment files,
// and the count a boot makes beyond its one read of each whole segment — one
// for each record it reads alone — given how many boots there were.
func recordReads(tb testing.TB, dir string) (*testFS, func(boots int) float64) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		tb.Fatal(err)
	}
	var reads atomic.Int64
	fs := &testFS{}
	fs.setRefuse(func(op, path string) error {
		if op == "read" && strings.HasSuffix(path, ".seg") {
			reads.Add(1)
		}
		return nil
	})
	return fs, func(boots int) float64 { return float64(reads.Load())/float64(boots) - float64(len(segs)) }
}
