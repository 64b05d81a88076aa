package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// stripLatency zeroes the wall-clock fields, which are real timings and
// therefore outside the determinism contract.
func stripLatency(r *ShardResult) *ShardResult {
	out := &ShardResult{Extenders: r.Extenders, Trials: r.Trials}
	for _, run := range r.Runs {
		run.MeanJoinMicros = 0
		run.P95JoinMicros = 0
		out.Runs = append(out.Runs, run)
	}
	return out
}

// TestShardDeterministicAcrossWorkers pins the acceptance criterion for
// the shard experiment: the throughput gap between the sharded plane and
// the global solve is bit-identical for Workers=1 and Workers=8. (Join
// latencies are measured wall-clock and excluded.)
func TestShardDeterministicAcrossWorkers(t *testing.T) {
	opts := parOpts(1)
	opts.Trials = 2
	seq, err := Shard(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	par, err := Shard(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripLatency(seq), stripLatency(par)) {
		t.Errorf("Workers=1 and Workers=8 differ:\n%+v\nvs\n%+v", stripLatency(seq), stripLatency(par))
	}
}

// TestShardBaselineRow sanity-checks the K=1 rows: one shard owning
// every extender IS the global solve, so its gap is exactly zero.
func TestShardBaselineRow(t *testing.T) {
	opts := parOpts(4)
	opts.Trials = 2
	res, err := Shard(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no runs")
	}
	for _, run := range res.Runs {
		if run.Shards == 1 {
			if run.GapPct != 0 {
				t.Errorf("K=1 gap = %v%%, want exactly 0 (it is the baseline)", run.GapPct)
			}
			if run.GlobalMbps != run.ShardedMbps {
				t.Errorf("K=1 global %v != sharded %v", run.GlobalMbps, run.ShardedMbps)
			}
		}
		if run.GlobalMbps <= 0 {
			t.Errorf("users=%d shards=%d: non-positive global aggregate %v",
				run.Users, run.Shards, run.GlobalMbps)
		}
	}
	if tables := res.Tables(); len(tables) != 1 || len(tables[0].Rows) != len(res.Runs) {
		t.Error("Tables() does not cover every run")
	}
}

// TestShardHonorsCancelledContext mirrors the cancellation contract of
// the other drivers.
func TestShardHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := parOpts(4)
	opts.Ctx = ctx
	if _, err := Shard(opts); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// BenchmarkShardGap records the aggregate-throughput gap each shard
// count pays against the global solve (the K=1 plane), at the largest
// user count of a small shard experiment: 8 extenders, up to 18 users,
// 2 trials. The gap is bit-identical for any worker count, so gap_pct
// is stable across hosts; ns/op is the whole experiment's wall clock.
func BenchmarkShardGap(b *testing.B) {
	opts := Options{Trials: 2, Users: 18, Extenders: 8}
	for _, k := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			var res *ShardResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Shard(opts); err != nil {
					b.Fatal(err)
				}
			}
			for _, run := range res.Runs {
				if run.Users == opts.Users && run.Shards == k {
					b.ReportMetric(run.GapPct, "gap_pct")
				}
			}
		})
	}
}
