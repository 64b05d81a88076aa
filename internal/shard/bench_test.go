package shard

import (
	"fmt"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
)

// BenchmarkCoordinatorJoin measures per-join latency as the control
// plane is partitioned: each join only solves its shard's sub-instance,
// so latency should fall as the shard count grows (the payoff for the
// throughput gap that BenchmarkShardGap in internal/experiments
// records). scripts/bench.sh shard records the ns/join figures in
// BENCH_shard.jsonl.
func BenchmarkCoordinatorJoin(b *testing.B) {
	const (
		numExt = 24
		users  = 48
		sd     = 2026
	)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// Pre-generate the scan reports outside the timed loop.
			rates := make([][]float64, users)
			for i := range rates {
				rates[i] = testRates(sd, i, numExt)
			}
			b.ResetTimer()
			var joins int
			var total time.Duration
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				coord, err := NewCoordinator(Config{
					Shards: shards,
					EngineConfig: control.EngineConfig{
						PLCCaps:   testCaps(numExt),
						Policy:    control.PolicyWOLT,
						ModelOpts: model.Options{Redistribute: true},
						Seed:      sd,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				for i := 0; i < users; i++ {
					if _, err := coord.Join(i, rates[i], nil); err != nil {
						b.Fatal(err)
					}
				}
				total += time.Since(start)
				joins += users
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(joins), "ns/join")
		})
	}
}
