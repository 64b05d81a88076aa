package workload

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "negative rate", cfg: Config{ArrivalRate: -1, Horizon: 1}},
		{name: "both zero", cfg: Config{Horizon: 1}},
		{name: "zero horizon", cfg: Config{ArrivalRate: 1}},
		{name: "negative initial", cfg: Config{ArrivalRate: 1, Horizon: 1, InitialUsers: -2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEventsSortedAndWithinHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events generated")
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].Time < events[j].Time }) {
		t.Error("events not time-sorted")
	}
	for _, ev := range events {
		if ev.Time < 0 || ev.Time > cfg.Horizon {
			t.Errorf("event outside horizon: %+v", ev)
		}
	}
}

func TestArrivalIDsFreshAndSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 4
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := cfg.InitialUsers
	for _, ev := range events {
		if ev.Kind != Arrival {
			continue
		}
		if ev.UserID != next {
			t.Fatalf("arrival ID %d, want %d", ev.UserID, next)
		}
		next++
	}
}

func TestDeparturesOnlyRemovePresent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[int]bool)
	for i := 0; i < cfg.InitialUsers; i++ {
		present[i] = true
	}
	for _, ev := range events {
		switch ev.Kind {
		case Arrival:
			if present[ev.UserID] {
				t.Fatalf("arrival of already-present user %d", ev.UserID)
			}
			present[ev.UserID] = true
		case Departure:
			if !present[ev.UserID] {
				t.Fatalf("departure of absent user %d", ev.UserID)
			}
			delete(present, ev.UserID)
		}
	}
}

func TestGrowthMatchesPaperTrajectory(t *testing.T) {
	// Arrival rate 3, departure rate 1: expected drift +2 per unit time,
	// so with 16-unit epochs the population should track 36 → ~68 → ~100,
	// within generous stochastic slack. This is the paper's Fig 6b shape.
	cfg := DefaultConfig()
	cfg.Seed = 6
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := Epochs(cfg.InitialUsers, events, 16, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(epochs))
	}
	wants := []float64{68, 100, 132}
	for i, e := range epochs {
		if math.Abs(float64(e.EndPopulation)-wants[i]) > 25 {
			t.Errorf("epoch %d population %d, want ≈%v", i, e.EndPopulation, wants[i])
		}
		if e.Arrivals == 0 {
			t.Errorf("epoch %d has no arrivals", i)
		}
	}
}

func TestPopulation(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: Arrival, UserID: 10},
		{Time: 2, Kind: Arrival, UserID: 11},
		{Time: 3, Kind: Departure, UserID: 10},
	}
	tests := []struct {
		t    float64
		want int
	}{
		{0, 5},
		{1, 6},
		{2.5, 7},
		{3, 6},
		{99, 6},
	}
	for _, tt := range tests {
		if got := Population(5, events, tt.t); got != tt.want {
			t.Errorf("Population(t=%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestEpochs(t *testing.T) {
	events := []Event{
		{Time: 0.5, Kind: Arrival, UserID: 3},
		{Time: 1.5, Kind: Departure, UserID: 0},
		{Time: 2.5, Kind: Arrival, UserID: 4},
	}
	epochs, err := Epochs(3, events, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epochs", len(epochs))
	}
	if epochs[0].Arrivals != 1 || epochs[0].EndPopulation != 4 {
		t.Errorf("epoch 0 = %+v", epochs[0])
	}
	if epochs[1].Departures != 1 || epochs[1].EndPopulation != 3 {
		t.Errorf("epoch 1 = %+v", epochs[1])
	}
	if epochs[2].Arrivals != 1 || epochs[2].EndPopulation != 4 {
		t.Errorf("epoch 2 = %+v", epochs[2])
	}
}

func TestEpochsEventFreeCarryPopulation(t *testing.T) {
	epochs, err := Epochs(7, nil, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range epochs {
		if e.EndPopulation != 7 {
			t.Errorf("epoch %d population %d, want 7", i, e.EndPopulation)
		}
	}
}

func TestEpochsErrors(t *testing.T) {
	if _, err := Epochs(1, nil, 0, 1); err == nil {
		t.Error("zero epoch length: want error")
	}
	if _, err := Epochs(1, nil, 1, 0); err == nil {
		t.Error("zero horizon: want error")
	}
}

func TestEventKindString(t *testing.T) {
	if Arrival.String() != "arrival" || Departure.String() != "departure" {
		t.Error("EventKind strings wrong")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Errorf("unknown kind string = %q", EventKind(9).String())
	}
}

func TestPureDeathProcess(t *testing.T) {
	cfg := Config{
		DepartureRate: 5,
		Horizon:       100,
		InitialUsers:  10,
		Seed:          8,
	}
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	departures := 0
	for _, ev := range events {
		if ev.Kind == Arrival {
			t.Fatal("arrival in pure-death process")
		}
		departures++
	}
	if departures != 10 {
		t.Errorf("departures = %d, want 10 (population must not go negative)", departures)
	}
}

// TestDwellModeValidation pins the dwell/departure exclusivity and shape
// preconditions.
func TestDwellModeValidation(t *testing.T) {
	bad := []Config{
		{ArrivalRate: 1, DepartureRate: 1, DwellRate: 1, Horizon: 10},
		{ArrivalRate: 1, DwellRate: -1, Horizon: 10},
		{DwellRate: 0, DepartureRate: 0, ArrivalRate: 0, Horizon: 10},
		{RateShape: Diurnal(24, 0.2), DepartureRate: 1, Horizon: 10},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// TestDwellDeparturesAreConsistent checks the M/M/∞ trace invariants:
// every departure names a user that arrived (or was initial) and is still
// present, each user departs at most once, and the mean population over
// the second half of the horizon sits near ArrivalRate/DwellRate.
func TestDwellDeparturesAreConsistent(t *testing.T) {
	cfg := Config{
		ArrivalRate:  50,
		DwellRate:    5, // steady state ≈ 10 users
		Horizon:      200,
		InitialUsers: 10,
		Seed:         99,
	}
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[int]bool, cfg.InitialUsers)
	for i := 0; i < cfg.InitialUsers; i++ {
		present[i] = true
	}
	departed := make(map[int]bool)
	for _, ev := range events {
		switch ev.Kind {
		case Arrival:
			if present[ev.UserID] || departed[ev.UserID] {
				t.Fatalf("user %d arrived twice", ev.UserID)
			}
			present[ev.UserID] = true
		case Departure:
			if !present[ev.UserID] {
				t.Fatalf("user %d departed while absent", ev.UserID)
			}
			if departed[ev.UserID] {
				t.Fatalf("user %d departed twice", ev.UserID)
			}
			delete(present, ev.UserID)
			departed[ev.UserID] = true
		}
	}
	// Time-averaged population over the settled second half.
	sum, samples := 0.0, 0
	for ts := cfg.Horizon / 2; ts <= cfg.Horizon; ts += 1 {
		sum += float64(Population(cfg.InitialUsers, events, ts))
		samples++
	}
	mean := sum / float64(samples)
	want := cfg.ArrivalRate / cfg.DwellRate
	if mean < want*0.7 || mean > want*1.3 {
		t.Errorf("steady-state population %.1f, want ≈ %.1f (M/M/∞)", mean, want)
	}
}

// TestDiurnalShapeThinsArrivals checks the inhomogeneous generator: with
// a day/night shape the peak half-period must see substantially more
// arrivals than the trough, and the total must land near the shape's
// integral, not the peak rate.
func TestDiurnalShapeThinsArrivals(t *testing.T) {
	const period = 24.0
	cfg := Config{
		ArrivalRate: 40,
		DwellRate:   2,
		RateShape:   Diurnal(period, 0.1),
		Horizon:     period,
		Seed:        7,
	}
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trough, peak := 0, 0 // quarters around t=0/24 vs t=12
	total := 0
	for _, ev := range events {
		if ev.Kind != Arrival {
			continue
		}
		total++
		switch {
		case ev.Time < period/4 || ev.Time > 3*period/4:
			trough++
		default:
			peak++
		}
	}
	if peak <= 2*trough {
		t.Errorf("diurnal shape: %d peak-half arrivals vs %d trough-half, want a clear day/night ratio", peak, trough)
	}
	// Integral of the shape over one period = floor + (1-floor)/2 = 0.55.
	want := 0.55 * cfg.ArrivalRate * period
	if f := float64(total); f < want*0.7 || f > want*1.3 {
		t.Errorf("total arrivals %d, want ≈ %.0f from the thinned rate", total, want)
	}

	// Same seed, same shape: byte-for-byte deterministic.
	again, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, again) {
		t.Error("shaped trace not deterministic for a fixed seed")
	}
}

// DefaultConfig mirrors the paper's setting: arrival rate 3, departure
// rate 1. With epoch length 16 the expected net growth is +32 users per
// epoch, matching the paper's 36 → 66 → 102 trajectory.
func DefaultConfig() Config {
	return Config{
		ArrivalRate:   3,
		DepartureRate: 1,
		Horizon:       48,
		InitialUsers:  36,
	}
}

// Population replays a trace and returns the number of users present just
// after time t (initial population included).
func Population(initial int, events []Event, t float64) int {
	n := initial
	for _, ev := range events {
		if ev.Time > t {
			break
		}
		switch ev.Kind {
		case Arrival:
			n++
		case Departure:
			n--
		}
	}
	return n
}

// EpochStats summarizes churn within one epoch.
type EpochStats struct {
	Arrivals   int
	Departures int
	// EndPopulation is the population at the end of the epoch.
	EndPopulation int
}

// Epochs splits a trace into consecutive epochs of the given length and
// tallies per-epoch churn. The number of epochs is ceil(horizon/epochLen)
// inferred from the last event (at least one).
func Epochs(initial int, events []Event, epochLen, horizon float64) ([]EpochStats, error) {
	if epochLen <= 0 {
		return nil, fmt.Errorf("workload: non-positive epoch length %v", epochLen)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: non-positive horizon %v", horizon)
	}
	numEpochs := int(math.Ceil(horizon / epochLen))
	out := make([]EpochStats, numEpochs)
	pop := initial
	for _, ev := range events {
		idx := int(ev.Time / epochLen)
		if idx >= numEpochs {
			break
		}
		switch ev.Kind {
		case Arrival:
			out[idx].Arrivals++
			pop++
		case Departure:
			out[idx].Departures++
			pop--
		}
		out[idx].EndPopulation = pop
	}
	// Carry populations through event-free epochs.
	pop = initial
	for i := range out {
		if out[i].Arrivals == 0 && out[i].Departures == 0 {
			out[i].EndPopulation = pop
		}
		pop = out[i].EndPopulation
	}
	return out, nil
}
