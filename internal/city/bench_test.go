package city

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/strategy"
)

// benchRun drives one city run and reports the harness metrics
// BENCH_city.jsonl records: sustained join throughput, directive
// latency percentiles, cross-shard handoff rate, the peak population
// actually sustained and the peak heap per user of that population. A
// run that sustains fewer than minPeak users fails: the acceptance
// scale is part of the benchmark. It returns the largest heap per user
// over the iterations.
func benchRun(b *testing.B, cfg Config, minPeak int) (heapPerUser float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runtime.GC() // start from the live heap, not an earlier run's garbage
		heapPeak := watchHeap()
		res, err := Run(cfg)
		peak := heapPeak()
		if err != nil {
			b.Fatal(err)
		}
		if res.PeakUsers < minPeak {
			b.Fatalf("sustained only %d users, want >= %d", res.PeakUsers, minPeak)
		}
		b.ReportMetric(res.JoinsPerSec, "joins/sec")
		b.ReportMetric(float64(res.P50Latency.Microseconds()), "p50_us")
		b.ReportMetric(float64(res.P99Latency.Microseconds()), "p99_us")
		b.ReportMetric(res.HandoffRate, "handoff_rate")
		b.ReportMetric(float64(res.PeakUsers), "users_peak")
		b.ReportMetric(float64(res.Events), "events")
		perUser := float64(peak) / float64(res.PeakUsers)
		b.ReportMetric(perUser, "heap_peak_B/user")
		heapPerUser = max(heapPerUser, perUser)
	}
	return heapPerUser
}

// watchHeap samples the bytes of heap objects (live, plus dead ones
// not yet swept) every millisecond until the returned function is
// called, which stops the sampler and returns the largest sample.
func watchHeap() (peak func() uint64) {
	done, res := make(chan struct{}), make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var top uint64
		for {
			metrics.Read(sample)
			top = max(top, sample[0].Value.Uint64())
			select {
			case <-done:
				res <- top
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-res
	}
}

// BenchmarkCitySmoke is the CI-sized run: 8 shards, ~4k users, mobility
// on — enough to exercise every code path in seconds.
func BenchmarkCitySmoke(b *testing.B) {
	benchRun(b, Config{
		Shards:          8,
		TargetUsers:     4000,
		DwellMean:       60,
		Horizon:         60,
		UpdateMean:      120,
		Policy:          "wolt-hillclimb",
		Budget:          strategy.Budget{Probes: 200},
		ReassignOnLeave: true,
		Seed:            2026,
	}, 0)
}

// BenchmarkCitySustained1M is the north-star run: 256 shards, 10^6
// users sustained, placement-only warm joins on the concurrent
// coordinator, fixed-memory latency sketches, no final-assignment copy.
// One iteration drives over a million plane operations and takes
// minutes, so it only runs when WOLT_CITY_1M is set (scripts/bench.sh
// sets it when recording; its smoke mode still compiles the benchmark).
func BenchmarkCitySustained1M(b *testing.B) {
	if os.Getenv("WOLT_CITY_1M") == "" {
		b.Skip("set WOLT_CITY_1M=1 to run the multi-minute 10^6-user benchmark")
	}
	benchRun(b, millionConfig(), 1_000_000)
}

// millionConfig is BenchmarkCitySustained1M's configuration.
func millionConfig() Config {
	return Config{
		Shards:              256,
		TargetUsers:         1_000_000,
		InitialFill:         1.0,
		DwellMean:           6000,
		Horizon:             60,
		UpdateMean:          6000,
		DiurnalFloor:        0.3,
		DiurnalPeriod:       120,
		Policy:              "wolt-hillclimb",
		Budget:              strategy.Budget{Probes: 200},
		ReassignOnLeave:     true,
		PlacementOnlyJoins:  true,
		FullResolveEvery:    64,
		Concurrency:         4,
		SkipFinalAssignment: true,
		Seed:                2026,
	}
}

// BenchmarkCityHeap prices the plane's memory: the 10^6-user
// configuration cut to 20,000 users and a 2 s horizon, at 32 and 256
// shards (128 and 1024 extenders). A member engine stores only the
// rates of the extenders it owns, so a user's stored scan does not
// grow with the city and heap_peak_B/user stays flat across the two
// sizes. The run fails above maxHeapPerUser at either size.
func BenchmarkCityHeap(b *testing.B) {
	const maxHeapPerUser = 2048
	for _, shards := range []int{32, 256} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := millionConfig()
			cfg.Shards, cfg.TargetUsers, cfg.Horizon = shards, 20_000, 2
			if got := benchRun(b, cfg, 20_000); got > maxHeapPerUser {
				b.Fatalf("heap_peak_B/user = %.0f, want <= %d", got, maxHeapPerUser)
			}
		})
	}
}

// BenchmarkCitySustained is the acceptance-scale run: 32 shards,
// 10^5 users sustained, diurnal arrivals, roaming on. One iteration
// drives several hundred thousand plane operations.
func BenchmarkCitySustained(b *testing.B) {
	benchRun(b, Config{
		Shards:          32,
		TargetUsers:     100_000,
		InitialFill:     1.0,
		DwellMean:       600,
		Horizon:         120,
		UpdateMean:      600,
		DiurnalFloor:    0.3,
		DiurnalPeriod:   240,
		Policy:          "wolt-hillclimb",
		Budget:          strategy.Budget{Probes: 200},
		ReassignOnLeave: true,
		Seed:            2026,
	}, 100_000)
}

// Run prepares and runs a city on its sharded plane in one call.
func Run(cfg Config) (Result, error) {
	c, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		return Result{}, err
	}
	return c.Run(coord)
}
