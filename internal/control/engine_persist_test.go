package control

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/strategy"
)

// flakyPolicy wraps a strategy and fails on a fixed schedule, sometimes
// after the wrapped call already ran (so the evaluator has moved past
// the engine's rolled-back view). The schedule is a pure function of
// the call count, so two engines driven through the same operations
// fail on the same calls.
type flakyPolicy struct {
	strategy.Strategy
	calls int
}

var errFlaky = errors.New("flaky policy: scheduled failure")

// fail runs the wrapped call, or skips it, and reports whether this
// call must fail.
func (f *flakyPolicy) fail(call func() error) error {
	f.calls++
	switch f.calls % 7 {
	case 3:
		return errFlaky
	case 5:
		if err := call(); err != nil {
			return err
		}
		return errFlaky
	}
	return call()
}

type flakyOnline struct{ *flakyPolicy }

func (f flakyOnline) Add(n *model.Network, assign model.Assignment, user int) (int, error) {
	var j int
	err := f.fail(func() (err error) {
		j, err = f.Strategy.(strategy.Online).Add(n, assign, user)
		return err
	})
	return j, err
}

type flakyReassigner struct{ *flakyPolicy }

func (f flakyReassigner) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	var a model.Assignment
	err := f.fail(func() (err error) {
		a, err = f.Strategy.(strategy.Reassigner).Reassign(n, prev)
		return err
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

type flakyBoth struct {
	flakyOnline
	flakyReassigner
}

// makeFlaky wraps st keeping exactly its Online/Reassigner forms.
func makeFlaky(st strategy.Strategy) strategy.Strategy {
	f := &flakyPolicy{Strategy: st}
	_, online := st.(strategy.Online)
	_, re := st.(strategy.Reassigner)
	switch {
	case online && re:
		return flakyBoth{flakyOnline{f}, flakyReassigner{f}}
	case online:
		return flakyOnline{f}
	case re:
		return flakyReassigner{f}
	}
	return f
}

// Name disambiguates the embedded Strategy of flakyBoth.
func (f flakyBoth) Name() string { return f.flakyOnline.Name() }

// Solve disambiguates the embedded Strategy of flakyBoth.
func (f flakyBoth) Solve(n *model.Network) (model.Assignment, error) {
	return f.flakyOnline.Solve(n)
}

// TestEnginePersistentVsRebuild drives fuzzed join/update/leave
// sequences through two engines: one keeps its view persistent, the
// other has its network invalidated before every operation, which
// forces every evaluator and candidate cache behind the policy to
// rebuild from scratch. The sequences include failing operations —
// duplicate joins, unknown users, unreachable scans, roams off the
// user's own extender, and policy failures that force the inverse row
// edit — and after every step the directives, errors and Stats must be
// identical.
func TestEnginePersistentVsRebuild(t *testing.T) {
	caps := []float64{60, 20, 40, 30, 50, 25}
	owned := []int{0, 2, 3, 5}
	cases := []struct {
		name string
		cfg  EngineConfig
	}{
		{"hillclimb", EngineConfig{
			Policy:             "wolt-hillclimb",
			ModelOpts:          model.Options{Redistribute: true},
			Budget:             strategy.Budget{Probes: 60},
			ReassignOnLeave:    true,
			PlacementOnlyJoins: true,
			FullResolveEvery:   5,
		}},
		{"hillclimb-pf", EngineConfig{
			Policy:          "wolt-hillclimb",
			ModelOpts:       model.Options{Redistribute: true, Utility: model.ProportionalFairness()},
			Budget:          strategy.Budget{Probes: 60},
			ReassignOnLeave: true,
		}},
		{"greedy", EngineConfig{
			Policy:    "greedy",
			ModelOpts: model.Options{Redistribute: true},
		}},
		{"incremental", EngineConfig{
			Policy:    "wolt-incremental",
			ModelOpts: model.Options{Redistribute: true},
			Budget:    strategy.Budget{Moves: 3},
		}},
		{"hillclimb-moves", EngineConfig{
			Policy:          "wolt-hillclimb",
			ModelOpts:       model.Options{Redistribute: true},
			Budget:          strategy.Budget{Probes: 60, Moves: 3},
			ReassignOnLeave: true,
		}},
	}
	for _, tc := range cases {
		for _, sub := range []struct {
			name  string
			owned []int
			flaky bool
		}{{"all", nil, false}, {"owned", owned, false}, {"owned-flaky", owned, true}} {
			t.Run(tc.name+"/"+sub.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.PLCCaps = caps
				cfg.Owned = sub.owned
				cfg.Seed = 3
				persistent, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rebuild, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sub.flaky {
					persistent.strategy = makeFlaky(persistent.strategy)
					rebuild.strategy = makeFlaky(rebuild.strategy)
				}
				comparePersistent(t, persistent, rebuild, 11, 400)
			})
		}
	}
}

// comparePersistent runs steps random operations on both engines and
// requires identical outcomes after each.
func comparePersistent(t *testing.T, persistent, rebuild *Engine, seedVal int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seedVal))
	numExt := len(persistent.cfg.PLCCaps)
	const idSpace = 40
	scan := func(avoid int) []float64 {
		rates := make([]float64, numExt)
		switch rng.Intn(12) {
		case 0: // reaches nothing at all: rejected up front
			return rates
		case 1: // wrong width: rejected up front
			return rates[:numExt-1]
		}
		for g := range rates {
			if rng.Intn(4) != 0 {
				rates[g] = 5 + float64(rng.Intn(50))
			}
		}
		if avoid != model.Unassigned && rng.Intn(3) == 0 {
			rates[avoid] = 0 // roam off the current extender
		}
		return rates
	}
	for s := 0; s < steps; s++ {
		id := rng.Intn(idSpace)
		var (
			op             string
			dp, dr         []Directive
			errP, errR     error
			leftP, leftR   bool
			cur, curR      int
			presentP, preR bool
		)
		cur, presentP = persistent.Extender(id)
		curR, preR = rebuild.Extender(id)
		if cur != curR || presentP != preR {
			t.Fatalf("step %d: user %d on %d/%v vs %d/%v", s, id, cur, presentP, curR, preR)
		}
		rebuild.mu.Lock()
		rebuild.net.Invalidate()
		rebuild.mu.Unlock()
		switch k := rng.Intn(10); {
		case k < 4:
			op = "join"
			rates := scan(model.Unassigned)
			dp, errP = persistent.Join(id, rates, nil)
			dr, errR = rebuild.Join(id, rates, nil)
		case k < 7:
			op = "update"
			rates := scan(cur)
			dp, errP = persistent.Update(id, rates, nil)
			dr, errR = rebuild.Update(id, rates, nil)
		default:
			op = "leave"
			dp, leftP = persistent.Leave(id)
			dr, leftR = rebuild.Leave(id)
			if leftP != leftR {
				t.Fatalf("step %d: leave(%d) present %v vs %v", s, id, leftP, leftR)
			}
		}
		if (errP == nil) != (errR == nil) || (errP != nil && errP.Error() != errR.Error()) {
			t.Fatalf("step %d: %s(%d) error %v vs rebuild %v", s, op, id, errP, errR)
		}
		if !reflect.DeepEqual(dp, dr) {
			t.Fatalf("step %d: %s(%d) directives %v vs rebuild %v", s, op, id, dp, dr)
		}
		if sp, sr := persistent.Stats(), rebuild.Stats(); !reflect.DeepEqual(sp, sr) {
			t.Fatalf("step %d: %s(%d) stats %+v vs rebuild %+v", s, op, id, sp, sr)
		}
	}
	if st := persistent.Stats(); st.Users == 0 || st.Reassociations == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// TestEngineRoamOffOwnExtender: an update whose scan no longer reaches
// the user's current extender must move the user, under every registry
// policy the engine can place arrivals with — the user lands, with a
// reassociation directive, on an extender its new scan reaches.
func TestEngineRoamOffOwnExtender(t *testing.T) {
	for _, policy := range strategy.Names() {
		t.Run(policy, func(t *testing.T) {
			e, err := NewEngine(EngineConfig{
				PLCCaps:   []float64{60, 20},
				Policy:    policy,
				ModelOpts: model.Options{Redistribute: true},
				Seed:      5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Join(0, []float64{30, 20}, []float64{-50, -60}); errors.Is(err, strategy.ErrNoOnlineForm) {
				t.Skipf("policy %q cannot place arrivals", policy)
			} else if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Join(1, []float64{25, 15}, []float64{-55, -65}); err != nil {
				t.Fatal(err)
			}
			from, _ := e.Extender(0)
			rates := []float64{30, 30}
			rssi := []float64{-50, -50}
			rates[from], rssi[from] = 0, -90
			dirs, err := e.Update(0, rates, rssi)
			if err != nil {
				t.Fatalf("roam off extender %d: %v", from, err)
			}
			to, _ := e.Extender(0)
			if to == from || rates[to] <= 0 {
				t.Fatalf("user 0 on extender %d after roaming off %d with rates %v", to, from, rates)
			}
			if d := directiveFor(t, dirs, 0); d.Extender != to || !d.Reassociation {
				t.Fatalf("directive %+v, want reassociation to %d", d, to)
			}
		})
	}
}

// Owned returns a copy of the global extender IDs this engine assigns.
func (e *Engine) Owned() []int { return append([]int(nil), e.owned...) }
