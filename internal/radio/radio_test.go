package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPathLossMonotone(t *testing.T) {
	c := DefaultChannel()
	prev := c.PathLossDB(1)
	for d := 2.0; d <= 200; d += 1 {
		pl := c.PathLossDB(d)
		if pl <= prev {
			t.Fatalf("path loss not increasing at d=%v: %v <= %v", d, pl, prev)
		}
		prev = pl
	}
}

func TestPathLossReference(t *testing.T) {
	c := DefaultChannel()
	if got := c.PathLossDB(1); got != c.ReferenceLossDB {
		t.Errorf("PL(1m) = %v, want %v", got, c.ReferenceLossDB)
	}
	// Below the reference distance the loss is clamped.
	if got := c.PathLossDB(0.1); got != c.ReferenceLossDB {
		t.Errorf("PL(0.1m) = %v, want clamp to %v", got, c.ReferenceLossDB)
	}
	// One decade of distance adds 10·n dB.
	want := c.ReferenceLossDB + 10*c.PathLossExponent
	if got := c.PathLossDB(10); math.Abs(got-want) > 1e-9 {
		t.Errorf("PL(10m) = %v, want %v", got, want)
	}
}

func TestRSSI(t *testing.T) {
	c := DefaultChannel()
	if got, want := c.RSSIDBm(1), c.TxPowerDBm-c.ReferenceLossDB; got != want {
		t.Errorf("RSSI(1m) = %v, want %v", got, want)
	}
	if c.RSSIDBm(5) <= c.RSSIDBm(50) {
		t.Error("RSSI should decrease with distance")
	}
}

func TestNewRateTableValidation(t *testing.T) {
	if _, err := NewRateTable(nil); err == nil {
		t.Error("empty table: want error")
	}
	if _, err := NewRateTable([]RateStep{{MinRSSIDBm: -70, RateMbps: 0}}); err == nil {
		t.Error("zero rate: want error")
	}
}

func TestNewRateTableSortsAndCopies(t *testing.T) {
	steps := []RateStep{
		{MinRSSIDBm: -88, RateMbps: 6},
		{MinRSSIDBm: -71, RateMbps: 54},
	}
	tab, err := NewRateTable(steps)
	if err != nil {
		t.Fatal(err)
	}
	got := tab.Steps()
	if got[0].RateMbps != 54 || got[1].RateMbps != 6 {
		t.Errorf("table not sorted by descending threshold: %+v", got)
	}
	// Mutating the caller's slice must not affect the table.
	steps[0].RateMbps = 999
	if tab.Steps()[1].RateMbps == 999 {
		t.Error("NewRateTable did not copy its input")
	}
}

func TestRateSelection(t *testing.T) {
	tab := Default80211g()
	tests := []struct {
		name     string
		rssi     float64
		wantRate float64
		wantOK   bool
	}{
		{name: "strong", rssi: -30, wantRate: 54, wantOK: true},
		{name: "exact top threshold", rssi: -71, wantRate: 54, wantOK: true},
		{name: "mid", rssi: -80, wantRate: 24, wantOK: true},
		{name: "edge", rssi: -88, wantRate: 6, wantOK: true},
		{name: "out of range", rssi: -95, wantRate: 0, wantOK: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rate, ok := tab.Rate(tt.rssi)
			if rate != tt.wantRate || ok != tt.wantOK {
				t.Errorf("Rate(%v) = (%v,%v), want (%v,%v)", tt.rssi, rate, ok, tt.wantRate, tt.wantOK)
			}
		})
	}
}

func TestRateTableExtremes(t *testing.T) {
	tab := Default80211g()
	if r, ok := tab.Rate(0); !ok || r != 54 {
		t.Errorf("Rate(0 dBm) = (%v,%v), want the top rate 54", r, ok)
	}
	if r, ok := tab.Rate(-88); !ok || r != 6 {
		t.Errorf("Rate(-88 dBm) = (%v,%v), want the cell-edge rate 6", r, ok)
	}
}

func TestModelRateMonotoneInDistance(t *testing.T) {
	m := DefaultModel()
	prev := m.RateAt(1)
	for d := 2.0; d < 300; d += 1 {
		r := m.RateAt(d)
		if r > prev {
			t.Fatalf("rate increased with distance at d=%v: %v > %v", d, r, prev)
		}
		prev = r
	}
}

func TestModelFloorRate(t *testing.T) {
	m := DefaultModel()
	// Very far away: below any table threshold, so the floor applies.
	if got := m.RateAt(10000); got != m.MinRateFloorMbps {
		t.Errorf("RateAt(10km) = %v, want floor %v", got, m.MinRateFloorMbps)
	}
	for _, d := range []float64{1, 2} {
		if got := m.RateAt(d); got != 54 {
			t.Errorf("RateAt(%vm) = %v, want 54", d, got)
		}
	}
}

func TestModelRatePositiveProperty(t *testing.T) {
	m := DefaultModel()
	f := func(d float64) bool {
		d = math.Abs(d)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		return m.RateAt(d) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRSSIAtMatchesChannel(t *testing.T) {
	m := DefaultModel()
	if m.RSSIAt(10) != m.Channel.RSSIDBm(10) {
		t.Error("RSSIAt should delegate to the channel")
	}
}

func TestShadowingDeterministic(t *testing.T) {
	m := DefaultModel()
	m.ShadowSigmaDB = 7
	a := m.LinkRate(30, 5, 2)
	b := m.LinkRate(30, 5, 2)
	if a != b {
		t.Errorf("shadowed rate not deterministic: %v vs %v", a, b)
	}
	if m.LinkRSSI(30, 5, 2) != m.LinkRSSI(30, 5, 2) {
		t.Error("shadowed RSSI not deterministic")
	}
}

func TestShadowingZeroSigmaMatchesDistanceModel(t *testing.T) {
	m := DefaultModel()
	m.ShadowSigmaDB = 0
	for _, d := range []float64{1, 10, 40, 120} {
		if m.LinkRate(d, 3, 1) != m.RateAt(d) {
			t.Errorf("d=%v: LinkRate differs from RateAt without shadowing", d)
		}
		if m.LinkRSSI(d, 3, 1) != m.RSSIAt(d) {
			t.Errorf("d=%v: LinkRSSI differs from RSSIAt without shadowing", d)
		}
	}
}

func TestShadowingVariesAcrossLinks(t *testing.T) {
	m := DefaultModel()
	m.ShadowSigmaDB = 7
	distinct := make(map[float64]bool)
	for uid := 0; uid < 20; uid++ {
		distinct[m.LinkRSSI(30, uid, 0)] = true
	}
	if len(distinct) < 15 {
		t.Errorf("only %d distinct shadowed RSSI values across 20 links", len(distinct))
	}
}

func TestHashNormalDistribution(t *testing.T) {
	// The deterministic normal should have roughly zero mean and unit
	// variance over many links.
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := hashNormal(1, uint64(i), uint64(i*31+7))
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("hashNormal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("hashNormal variance = %v, want ≈1", variance)
	}
}

func TestShadowSeedChangesField(t *testing.T) {
	a := DefaultModel()
	a.ShadowSeed = 1
	b := DefaultModel()
	b.ShadowSeed = 2
	same := 0
	for uid := 0; uid < 10; uid++ {
		if a.LinkRSSI(30, uid, 0) == b.LinkRSSI(30, uid, 0) {
			same++
		}
	}
	if same == 10 {
		t.Error("shadow seed has no effect")
	}
}

// Steps returns a copy of the table rows in descending-threshold order.
func (t *RateTable) Steps() []RateStep {
	return append([]RateStep(nil), t.steps...)
}

// RSSIAt returns the unshadowed RSSI at distance d meters.
func (m Model) RSSIAt(d float64) float64 {
	return m.Channel.RSSIDBm(d)
}

// RateAt returns the PHY rate of a user at distance d meters from an
// extender, without shadowing.
func (m Model) RateAt(d float64) float64 {
	return m.rateAtRSSI(m.Channel.RSSIDBm(d))
}
