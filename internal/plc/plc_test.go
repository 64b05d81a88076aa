package plc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPHYRateDecreasesWithWireLength(t *testing.T) {
	m := DefaultLineModel()
	prev := m.PHYRate(0, 1, nil)
	for l := 5.0; l <= 100; l += 5 {
		r := m.PHYRate(l, 1, nil)
		if r > prev {
			t.Fatalf("PHY rate increased with wire length at %vm: %v > %v", l, r, prev)
		}
		prev = r
	}
}

func TestPHYRateDecreasesWithBranches(t *testing.T) {
	m := DefaultLineModel()
	prev := m.PHYRate(30, 0, nil)
	for b := 1; b <= 10; b++ {
		r := m.PHYRate(30, b, nil)
		if r > prev {
			t.Fatalf("PHY rate increased with branches at %d: %v > %v", b, r, prev)
		}
		prev = r
	}
}

func TestPHYRateCapped(t *testing.T) {
	m := DefaultLineModel()
	m.BaseSNRdB = 200 // absurdly clean line
	if got := m.PHYRate(0, 0, nil); got != m.MaxPHYRateMbps {
		t.Errorf("PHY rate = %v, want cap %v", got, m.MaxPHYRateMbps)
	}
}

func TestPHYRateNonNegative(t *testing.T) {
	m := DefaultLineModel()
	f := func(wire float64, branches uint8) bool {
		w := math.Abs(wire)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		return m.PHYRate(w, int(branches), nil) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCapacityBelowPHY(t *testing.T) {
	if got := Capacity(1000); got != 1000*MACEfficiency {
		t.Errorf("Capacity(1000) = %v", got)
	}
	if Capacity(100) >= 100 {
		t.Error("capacity should be strictly below PHY rate")
	}
}

func TestRealisticCapacityRange(t *testing.T) {
	// Typical in-building paths should land in (or near) the paper's
	// measured 60-160 Mbps isolation range.
	m := DefaultLineModel()
	rng := rand.New(rand.NewSource(11))
	links := m.BuildLinks(RandomPaths(100, rng), rng)
	inRange := 0
	for _, l := range links {
		if l.CapacityMbps >= 40 && l.CapacityMbps <= 200 {
			inRange++
		}
		if l.CapacityMbps <= 0 {
			t.Fatalf("non-positive capacity: %+v", l)
		}
		if l.CapacityMbps >= l.PHYRateMbps {
			t.Fatalf("capacity %v not below PHY %v", l.CapacityMbps, l.PHYRateMbps)
		}
	}
	if inRange < 80 {
		t.Errorf("only %d/100 links in the plausible 40-200 Mbps window", inRange)
	}
}

func TestBuildLinksDeterministic(t *testing.T) {
	m := DefaultLineModel()
	paths := RandomPaths(5, rand.New(rand.NewSource(3)))
	a := m.BuildLinks(paths, rand.New(rand.NewSource(4)))
	b := m.BuildLinks(paths, rand.New(rand.NewSource(4)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d differs across identical seeds", i)
		}
	}
}

func TestRandomPathsShape(t *testing.T) {
	paths := RandomPaths(7, rand.New(rand.NewSource(1)))
	if len(paths) != 7 {
		t.Fatalf("got %d paths", len(paths))
	}
	for i, p := range paths {
		if p.ExtenderID != i {
			t.Errorf("path %d has extender ID %d", i, p.ExtenderID)
		}
		if p.WireLenM < 10 || p.WireLenM > 60 {
			t.Errorf("wire length %v outside [10,60]", p.WireLenM)
		}
		if p.Branches < 1 || p.Branches > 6 {
			t.Errorf("branches %d outside [1,6]", p.Branches)
		}
	}
}

func TestEstimatorAveragesProbes(t *testing.T) {
	calls := 0
	e := Estimator{
		Probe: func(link Link) float64 {
			calls++
			// Alternate above/below truth; average returns truth.
			if calls%2 == 0 {
				return link.CapacityMbps + 10
			}
			return link.CapacityMbps - 10
		},
		Samples: 2,
	}
	links := []Link{{ExtenderID: 0, CapacityMbps: 100}}
	got, err := e.Estimate(links)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 {
		t.Errorf("estimate = %v, want 100", got[0])
	}
	if calls != 2 {
		t.Errorf("probe called %d times, want 2", calls)
	}
}

func TestEstimatorDefaultSamples(t *testing.T) {
	calls := 0
	e := Estimator{Probe: func(link Link) float64 {
		calls++
		return link.CapacityMbps
	}}
	if _, err := e.Estimate([]Link{{CapacityMbps: 50}}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("default samples = %d, want 3", calls)
	}
}

func TestEstimatorNoProbe(t *testing.T) {
	var e Estimator
	if _, err := e.Estimate(nil); err == nil {
		t.Error("want error for missing probe")
	}
}

func TestNoisyProbeStaysNearTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probe := NoisyProbe(0.05, rng)
	link := Link{CapacityMbps: 120}
	var sum float64
	const n = 500
	for i := 0; i < n; i++ {
		v := probe(link)
		if v <= 0 {
			t.Fatalf("probe returned non-positive %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-120) > 3 {
		t.Errorf("noisy probe mean %v too far from 120", mean)
	}
}

// RandomPaths draws plausible outlet paths for n extenders: wire runs of
// 10–60 m with 1–6 branch taps. Deterministic for a given rng state.
func RandomPaths(n int, rng *rand.Rand) []OutletPath {
	paths := make([]OutletPath, n)
	for i := range paths {
		paths[i] = OutletPath{
			ExtenderID: i,
			WireLenM:   10 + rng.Float64()*50,
			Branches:   1 + rng.Intn(6),
		}
	}
	return paths
}
