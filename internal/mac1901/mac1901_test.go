package mac1901

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func simulate(t *testing.T, caps []float64, seed int64) *Result {
	t.Helper()
	res, err := Simulate(caps, 60, DefaultParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Simulate(nil, 1, DefaultParams(), rng); err == nil {
		t.Error("no stations: want error")
	}
	if _, err := Simulate([]float64{100}, 0, DefaultParams(), rng); err == nil {
		t.Error("zero duration: want error")
	}
	if _, err := Simulate([]float64{0}, 1, DefaultParams(), rng); err == nil {
		t.Error("zero capacity: want error")
	}
	if _, err := Simulate([]float64{100}, 1, DefaultParams(), nil); err == nil {
		t.Error("nil rng: want error")
	}
	bad := DefaultParams()
	bad.PPDUDuration = 0
	if _, err := Simulate([]float64{100}, 1, bad, rng); err == nil {
		t.Error("zero PPDU: want error")
	}
	if _, err := SimulateTDMA(nil, 1, DefaultParams()); err == nil {
		t.Error("TDMA no stations: want error")
	}
	if _, err := SimulateTDMA([]float64{100}, 0, DefaultParams()); err == nil {
		t.Error("TDMA zero duration: want error")
	}
	if _, err := SimulateTDMA([]float64{0}, 1, DefaultParams()); err == nil {
		t.Error("TDMA zero capacity: want error")
	}
}

func TestIsolationThroughputNearCapacity(t *testing.T) {
	// Fig 2b behaviour: a lone extender sustains (nearly) its isolation
	// capacity; only inter-frame overhead and backoff idles are lost.
	for _, c := range []float64{60, 100, 160} {
		res := simulate(t, []float64{c}, 2)
		if res.AggregateMbps > c {
			t.Errorf("capacity %v: throughput %v exceeds capacity", c, res.AggregateMbps)
		}
		if res.AggregateMbps < 0.8*c {
			t.Errorf("capacity %v: lone throughput %v below 80%% of capacity", c, res.AggregateMbps)
		}
	}
}

// TestTimeFairSharing is the package's reason to exist: with A saturated
// extenders, each obtains ≈1/A of the successful airtime and thus
// ≈c_j/A throughput (the paper's Fig 2c). Fairness is measured against
// the busy time — the remainder of the wall clock is backoff idle,
// inter-frame overhead and collisions, which belong to no station.
func TestTimeFairSharing(t *testing.T) {
	caps := []float64{160, 120, 90, 60}
	for active := 1; active <= 4; active++ {
		res := simulate(t, caps[:active], 3)
		var busy float64
		for _, s := range res.Stations {
			busy += s.AirtimeSec
		}
		// The medium should be productively occupied most of the time.
		if frac := busy / res.DurationSec; frac < 0.7 || frac > 0.95 {
			t.Errorf("A=%d: busy fraction %v outside [0.7,0.95]", active, frac)
		}
		fairShare := 1.0 / float64(active)
		for j, s := range res.Stations {
			share := s.AirtimeSec / busy
			if rel := math.Abs(share-fairShare) / fairShare; rel > 0.1 {
				t.Errorf("A=%d extender %d busy-time share %v deviates %.0f%% from 1/%d",
					active, j, share, rel*100, active)
			}
			// Throughput tracks c_j × airtime share.
			wantTp := caps[j] * s.AirtimeShare
			if math.Abs(s.ThroughputMbps-wantTp) > 1e-9 {
				t.Errorf("A=%d extender %d throughput %v, want %v",
					active, j, s.ThroughputMbps, wantTp)
			}
		}
	}
}

func TestHalvesThirdsQuarters(t *testing.T) {
	// The paper's Fig 2c narrative: with 2/3/4 active extenders each
	// delivers 1/2, 1/3, 1/4 of its isolation throughput.
	caps := []float64{160, 120, 90, 60}
	solo := make([]float64, len(caps))
	for j, c := range caps {
		res := simulate(t, []float64{c}, int64(10+j))
		solo[j] = res.AggregateMbps
	}
	for active := 2; active <= 4; active++ {
		res := simulate(t, caps[:active], int64(20+active))
		for j := 0; j < active; j++ {
			want := solo[j] / float64(active)
			got := res.Stations[j].ThroughputMbps
			if rel := math.Abs(got-want) / want; rel > 0.2 {
				t.Errorf("A=%d extender %d: throughput %v, want ≈ solo/%d = %v (%.0f%% off)",
					active, j, got, active, want, rel*100)
			}
		}
	}
}

func TestBetterLinkStillGetsMoreThroughput(t *testing.T) {
	// Time-fair sharing preserves the capacity ordering: with equal
	// airtime, the 160 Mbps link outperforms the 60 Mbps link.
	res := simulate(t, []float64{160, 60}, 4)
	if res.Stations[0].ThroughputMbps <= res.Stations[1].ThroughputMbps {
		t.Errorf("capacity ordering lost: %v vs %v",
			res.Stations[0].ThroughputMbps, res.Stations[1].ThroughputMbps)
	}
	ratio := res.Stations[0].ThroughputMbps / res.Stations[1].ThroughputMbps
	if math.Abs(ratio-160.0/60.0) > 0.5 {
		t.Errorf("throughput ratio %v far from capacity ratio %v", ratio, 160.0/60.0)
	}
}

func TestDeferralCounterEngages(t *testing.T) {
	// With several contenders the 1901 deferral mechanism must fire; it
	// is the distinguishing feature vs 802.11.
	res := simulate(t, []float64{100, 100, 100, 100}, 5)
	totalDeferrals := 0
	for _, s := range res.Stations {
		totalDeferrals += s.Deferrals
	}
	if totalDeferrals == 0 {
		t.Error("deferral counter never engaged with 4 contenders")
	}
}

func TestTDMAExactShares(t *testing.T) {
	caps := []float64{160, 120, 90}
	res, err := SimulateTDMA(caps, 30, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionRate != 0 {
		t.Errorf("TDMA collision rate %v, want 0", res.CollisionRate)
	}
	// Round-robin grants: success counts differ by at most one.
	minS, maxS := res.Stations[0].Successes, res.Stations[0].Successes
	for _, s := range res.Stations[1:] {
		if s.Successes < minS {
			minS = s.Successes
		}
		if s.Successes > maxS {
			maxS = s.Successes
		}
	}
	if maxS-minS > 1 {
		t.Errorf("TDMA grants uneven: min %d max %d", minS, maxS)
	}
	for j, s := range res.Stations {
		want := caps[j] * s.AirtimeShare
		if math.Abs(s.ThroughputMbps-want) > 1e-9 {
			t.Errorf("TDMA extender %d throughput %v, want %v", j, s.ThroughputMbps, want)
		}
	}
}

func TestCSMAAndTDMAAgreeOnShares(t *testing.T) {
	// Both access modes should deliver time-fair sharing; TDMA exactly,
	// CSMA statistically.
	caps := []float64{140, 70}
	csma := simulate(t, caps, 6)
	tdma, err := SimulateTDMA(caps, 60, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for j := range caps {
		diff := math.Abs(csma.Stations[j].AirtimeShare - tdma.Stations[j].AirtimeShare)
		if diff > 0.1 {
			t.Errorf("extender %d: CSMA share %v vs TDMA share %v",
				j, csma.Stations[j].AirtimeShare, tdma.Stations[j].AirtimeShare)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a := simulate(t, []float64{120, 80}, 42)
	b := simulate(t, []float64{120, 80}, 42)
	for i := range a.Stations {
		if a.Stations[i] != b.Stations[i] {
			t.Fatalf("station %d differs across identical seeds", i)
		}
	}
}

func TestPriorityValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SimulateWithPriorities([]float64{100}, []Priority{CA1, CA1}, 1, DefaultParams(), rng); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := SimulateWithPriorities([]float64{100}, []Priority{Priority(9)}, 1, DefaultParams(), rng); err == nil {
		t.Error("invalid priority: want error")
	}
}

func TestStrictPriorityStarvesLowerClasses(t *testing.T) {
	// Saturated CA3 and CA1 stations: priority resolution gives the CA3
	// stations the whole medium — the standard's strict-priority
	// behaviour (and the reason the QoS planner uses TDMA slots).
	res, err := SimulateWithPriorities(
		[]float64{100, 100, 100},
		[]Priority{CA3, CA1, CA1},
		30, DefaultParams(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stations[0].ThroughputMbps < 70 {
		t.Errorf("CA3 station got %v Mbps, want near-full medium", res.Stations[0].ThroughputMbps)
	}
	for i := 1; i < 3; i++ {
		if res.Stations[i].ThroughputMbps != 0 {
			t.Errorf("CA1 station %d got %v Mbps under saturation, want 0",
				i, res.Stations[i].ThroughputMbps)
		}
	}
}

func TestEqualHighPrioritySharesTimeFairly(t *testing.T) {
	// Two CA3 stations behave like the base simulation: time-fair split.
	res, err := SimulateWithPriorities(
		[]float64{160, 60},
		[]Priority{CA3, CA3},
		60, DefaultParams(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, s := range res.Stations {
		busy += s.AirtimeSec
	}
	for j, s := range res.Stations {
		share := s.AirtimeSec / busy
		if math.Abs(share-0.5) > 0.06 {
			t.Errorf("CA3 station %d busy-time share %v, want ≈0.5", j, share)
		}
	}
}

func TestCA0DefaultsMatchSimulate(t *testing.T) {
	caps := []float64{120, 80}
	a, err := Simulate(caps, 20, DefaultParams(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateWithPriorities(caps, []Priority{CA1, CA1}, 20, DefaultParams(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Stations {
		if a.Stations[i] != b.Stations[i] {
			t.Fatalf("station %d differs between Simulate and explicit CA1", i)
		}
	}
}

func TestPrioritySchedules(t *testing.T) {
	if &CA0.schedule()[0] != &ca1Schedule[0] || &CA1.schedule()[0] != &ca1Schedule[0] {
		t.Error("CA0/CA1 should use the CA0/CA1 schedule")
	}
	if &CA2.schedule()[0] != &ca3Schedule[0] || &CA3.schedule()[0] != &ca3Schedule[0] {
		t.Error("CA2/CA3 should use the CA2/CA3 schedule")
	}
}

// SimulateTDMA runs the same extenders under the coordinator-scheduled
// TDMA mode: fixed PPDU grants handed out round-robin. Sharing is
// time-fair by construction (the QoS mode of the standard), which makes
// it the oracle of the CSMA shares.
func SimulateTDMA(capacitiesMbps []float64, duration float64, params Params) (*Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if len(capacitiesMbps) == 0 {
		return nil, fmt.Errorf("mac1901: no stations")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("mac1901: non-positive duration %v", duration)
	}
	stations := make([]*station, len(capacitiesMbps))
	for i, c := range capacitiesMbps {
		if c <= 0 {
			return nil, fmt.Errorf("mac1901: station %d has non-positive capacity %v", i, c)
		}
		stations[i] = &station{capacity: c, stats: StationStats{CapacityMbps: c}}
	}
	var now float64
	grant := params.PPDUDuration + params.OverheadPerFrame
	for i := 0; now+grant <= duration; i = (i + 1) % len(stations) {
		s := stations[i]
		s.stats.Successes++
		s.stats.AirtimeSec += params.PPDUDuration
		now += grant
	}
	if now == 0 {
		now = duration
	}
	return finish(stations, now, params, 0, 0), nil
}
