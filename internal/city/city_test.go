package city

import (
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/strategy"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 0, TargetUsers: 10},
		{Shards: 2, TargetUsers: 0},
		{Shards: 2, TargetUsers: 10, InitialFill: 1.5},
		{Shards: 2, TargetUsers: 10, DiurnalFloor: -0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// TestCitySmallRunInvariants drives a small city end to end under the
// anytime policy and checks the bookkeeping: event counts match the
// trace, the final population matches the plane's view, and every
// present user ends associated.
func TestCitySmallRunInvariants(t *testing.T) {
	cfg := Config{
		Shards:      4,
		TargetUsers: 120,
		Horizon:     30,
		DwellMean:   15,
		UpdateMean:  20,
		Policy:      "wolt-hillclimb",
		Budget:      strategy.Budget{Probes: 100},
		Seed:        31,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(coord)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != res.Joins+res.Leaves+res.Updates {
		t.Errorf("events %d != joins %d + leaves %d + updates %d",
			res.Events, res.Joins, res.Leaves, res.Updates)
	}
	if res.Joins != c.InitialUsers()+countArrivals(c) {
		t.Errorf("joins = %d, want initial %d + trace arrivals %d",
			res.Joins, c.InitialUsers(), countArrivals(c))
	}
	st := coord.Stats()
	if st.Users != res.FinalUsers {
		t.Errorf("plane reports %d users, harness counted %d", st.Users, res.FinalUsers)
	}
	if len(res.FinalAssignment) != res.FinalUsers {
		t.Errorf("final assignment has %d entries for %d users",
			len(res.FinalAssignment), res.FinalUsers)
	}
	for id, ext := range res.FinalAssignment {
		if ext < 0 || ext >= res.Extenders {
			t.Errorf("user %d on out-of-range extender %d", id, ext)
		}
	}
	if res.PeakUsers < res.FinalUsers {
		t.Errorf("peak %d below final %d", res.PeakUsers, res.FinalUsers)
	}
	if res.DroppedReassigns != 0 {
		t.Errorf("healthy run dropped %d reassigns", res.DroppedReassigns)
	}
}

func countArrivals(c *City) int {
	n := 0
	for _, ev := range c.trace {
		if ev.Kind == 1 { // workload.Arrival
			n++
		}
	}
	return n
}

// TestCityDifferentialShardedVsSingleEngine is the PR's differential
// satellite: the same event stream replayed against a 2-shard
// coordinator and a single global engine must end in the IDENTICAL
// association. The rssi policy makes this exact: the coordinator routes
// each user to the member owning its best-rate extender, and rssi (with
// no RSSI vectors reported) places each user on its best-rate owned
// extender — both compose to "the globally best-rate extender", sharded
// or not.
func TestCityDifferentialShardedVsSingleEngine(t *testing.T) {
	cfg := Config{
		Shards:      2,
		TargetUsers: 500,
		Horizon:     20,
		DwellMean:   10,
		UpdateMean:  15, // mobility on: handoffs exercised
		Policy:      "rssi",
		Seed:        77,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := c.Run(coord)
	if err != nil {
		t.Fatal(err)
	}
	single, err := c.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	global, err := c.Run(single)
	if err != nil {
		t.Fatal(err)
	}

	if sharded.PeakUsers < 400 {
		t.Fatalf("peak population %d; stream too small to mean anything", sharded.PeakUsers)
	}
	for _, pair := range [][2]int{
		{sharded.Joins, global.Joins},
		{sharded.Leaves, global.Leaves},
		{sharded.Updates, global.Updates},
		{sharded.Events, global.Events},
		{sharded.FinalUsers, global.FinalUsers},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("sharded/global event streams diverged: %+v vs %+v", sharded, global)
		}
	}
	if !reflect.DeepEqual(sharded.FinalAssignment, global.FinalAssignment) {
		diff := 0
		for id, ext := range sharded.FinalAssignment {
			if global.FinalAssignment[id] != ext {
				diff++
			}
		}
		t.Errorf("final associations differ for %d/%d users", diff, len(sharded.FinalAssignment))
	}
	if sharded.Handoffs == 0 {
		t.Error("no cross-shard handoffs; mobility did not exercise the boundary")
	}
	if global.Handoffs != 0 {
		t.Errorf("single engine reported %d handoffs", global.Handoffs)
	}
}

// TestCityDifferentialConcurrentVsSequential pins the worker-lane
// contract: under the rssi policy — where each user's final extender
// depends only on its own last scan, so no operation interleaving can
// change it — a concurrent run must end in the identical association as
// the sequential one, with identical generator-side counters. Handoffs
// are included: routing depends only on the feeder-deterministic scan
// rates and the (static) ring, so the count survives reordering.
func TestCityDifferentialConcurrentVsSequential(t *testing.T) {
	run := func(lanes int) Result {
		res, err := Run(Config{
			Shards:      4,
			TargetUsers: 400,
			Horizon:     20,
			DwellMean:   10,
			UpdateMean:  15,
			Policy:      "rssi",
			Seed:        77,
			Concurrency: lanes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, conc := run(1), run(4)
	for _, pair := range [][2]int{
		{seq.Joins, conc.Joins},
		{seq.Leaves, conc.Leaves},
		{seq.Updates, conc.Updates},
		{seq.Events, conc.Events},
		{seq.PeakUsers, conc.PeakUsers},
		{seq.FinalUsers, conc.FinalUsers},
		{seq.Handoffs, conc.Handoffs},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("concurrent run diverged from sequential:\n seq:  %+v\n conc: %+v", seq, conc)
		}
	}
	if !reflect.DeepEqual(seq.FinalAssignment, conc.FinalAssignment) {
		diff := 0
		for id, ext := range seq.FinalAssignment {
			if conc.FinalAssignment[id] != ext {
				diff++
			}
		}
		t.Errorf("final associations differ for %d/%d users", diff, len(seq.FinalAssignment))
	}
	if seq.Handoffs == 0 {
		t.Error("no cross-shard handoffs; the stream did not exercise the boundary")
	}
}

// TestCityConcurrentHillclimb drives the worker lanes with the full
// re-solving policy under -race: directive counts are
// interleaving-dependent there, but the generator-side counters and the
// plane's own user accounting must still hold together.
func TestCityConcurrentHillclimb(t *testing.T) {
	cfg := Config{
		Shards:             4,
		TargetUsers:        150,
		Horizon:            20,
		DwellMean:          10,
		UpdateMean:         15,
		Policy:             "wolt-hillclimb",
		Budget:             strategy.Budget{Probes: 100},
		ReassignOnLeave:    true,
		PlacementOnlyJoins: true,
		Seed:               41,
		Concurrency:        3,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(coord)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != res.Joins+res.Leaves+res.Updates {
		t.Errorf("events %d != joins %d + leaves %d + updates %d",
			res.Events, res.Joins, res.Leaves, res.Updates)
	}
	st := coord.Stats()
	if st.Users != res.FinalUsers {
		t.Errorf("plane reports %d users, harness counted %d", st.Users, res.FinalUsers)
	}
	if st.Joins != res.Joins || st.Leaves != res.Leaves {
		t.Errorf("plane counters joins=%d leaves=%d, harness joins=%d leaves=%d",
			st.Joins, st.Leaves, res.Joins, res.Leaves)
	}
	for id, ext := range res.FinalAssignment {
		if ext < 0 || ext >= res.Extenders {
			t.Errorf("user %d on out-of-range extender %d", id, ext)
		}
	}
}

// TestCityDeterministicAcrossWorkers pins the §7 contract for the
// harness: identical Results (wall-clock fields excluded) for any
// Workers value, with the full wolt-hillclimb policy in the loop.
func TestCityDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Result {
		res, err := Run(Config{
			Shards:          2,
			TargetUsers:     80,
			Horizon:         20,
			DwellMean:       10,
			UpdateMean:      12,
			Policy:          "wolt-hillclimb",
			Budget:          strategy.Budget{Probes: 150},
			ReassignOnLeave: true,
			Workers:         workers,
			Seed:            5150,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Strip host measurements; everything else must be bit-identical.
		res.ScrubHostMetrics()
		return res
	}
	w1, w8 := run(1), run(8)
	if !reflect.DeepEqual(w1, w8) {
		t.Errorf("city run differs across workers:\n w1: %+v\n w8: %+v", w1, w8)
	}
}

// TestCityReusableAcrossRuns pins the City replay contract: two runs of
// one City against identically-built planes produce identical
// deterministic results.
func TestCityReusableAcrossRuns(t *testing.T) {
	c, err := New(Config{
		Shards:      3,
		TargetUsers: 60,
		Horizon:     15,
		DwellMean:   10,
		UpdateMean:  10,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, 2)
	for i := range results {
		coord, err := c.NewCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(coord)
		if err != nil {
			t.Fatal(err)
		}
		res.ScrubHostMetrics()
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("replay differs:\n 1st: %+v\n 2nd: %+v", results[0], results[1])
	}
}

// ScrubHostMetrics zeroes the fields that measure this host rather than
// the simulated system — Elapsed, JoinsPerSec and the latency
// percentiles. Determinism comparisons call it instead of
// hand-maintaining the field list; everything left is
// bit-identical for a given Config in sequential mode.
func (r *Result) ScrubHostMetrics() {
	r.Elapsed = 0
	r.JoinsPerSec = 0
	r.P50Latency = 0
	r.P99Latency = 0
	r.DroppedPushes = 0
}
