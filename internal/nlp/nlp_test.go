package nlp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Problem
	}{
		{name: "no users", p: Problem{}},
		{name: "no extenders", p: Problem{Rates: [][]float64{{}}, Fixed: model.Assignment{model.Unassigned}}},
		{name: "length mismatch", p: Problem{Rates: [][]float64{{1}}, Fixed: model.Assignment{}}},
		{name: "ragged", p: Problem{Rates: [][]float64{{1, 2}, {3}}, Fixed: model.Assignment{0, 0}}},
		{name: "fixed out of range", p: Problem{Rates: [][]float64{{1}}, Fixed: model.Assignment{5}}},
		{name: "fixed unreachable", p: Problem{Rates: [][]float64{{0, 5}}, Fixed: model.Assignment{0}}},
		{name: "free unreachable", p: Problem{Rates: [][]float64{{0, 0}}, Fixed: model.Assignment{model.Unassigned}}},
		{name: "subnormal rate", p: Problem{Rates: [][]float64{{5, 0x1p-1070}}, Fixed: model.Assignment{model.Unassigned}}},
		{name: "subnormal fixed rate", p: Problem{Rates: [][]float64{{0x1p-1023, 5}}, Fixed: model.Assignment{1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := tt.p.validate(nil); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestOverflowingTermsStillAssign: rates so small that the α-fair
// cell terms overflow to -Inf (or the iterate to NaN) still give every
// free user a reachable extender, under every utility, from the
// projected-gradient solve and from the coordinate solve alike.
func TestOverflowingTermsStillAssign(t *testing.T) {
	for _, r := range []float64{1e-50, 0x1p-1022} {
		p := Problem{
			Rates: [][]float64{{r, 0}, {r, r}, {0, r}},
			Fixed: model.Assignment{model.Unassigned, model.Unassigned, model.Unassigned},
		}
		for _, ut := range goldenUtilities {
			sol, err := SolveProjectedGradient(p, Options{Utility: ut.u})
			if err != nil {
				t.Fatalf("r=%g %s: %v", r, ut.name, err)
			}
			coord, err := SolveCoordinateWith(p, AlphaFairCell(ut.u))
			if err != nil {
				t.Fatalf("r=%g %s: coordinate: %v", r, ut.name, err)
			}
			for _, a := range []model.Assignment{sol.Assign, coord.Assign} {
				for i, j := range a {
					if j < 0 || p.Rates[i][j] <= 0 {
						t.Fatalf("r=%g %s: user %d on extender %d, want a reachable one (%v)",
							r, ut.name, i, j, a)
					}
				}
			}
		}
	}
}

func TestNoFreeUsers(t *testing.T) {
	p := Problem{
		Rates: [][]float64{{10, 20}, {30, 40}},
		Fixed: model.Assignment{0, 1},
	}
	sol, err := SolveProjectedGradient(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != 0 || sol.Assign[1] != 1 {
		t.Errorf("assign = %v, want fixed [0 1]", sol.Assign)
	}
	if math.Abs(sol.Objective-(10+40)) > 1e-9 {
		t.Errorf("objective = %v, want 50", sol.Objective)
	}
}

func TestSingleFreeUserPicksBestCell(t *testing.T) {
	// One fixed user on each extender; the free user has a much better
	// rate to extender 1 and joining it does not hurt (equal rates), so
	// the best move is extender 1.
	p := Problem{
		Rates: [][]float64{
			{50, 1},  // fixed on 0
			{1, 50},  // fixed on 1
			{50, 10}, // free
		},
		Fixed: model.Assignment{0, 1, model.Unassigned},
	}
	for name, solve := range solvers() {
		t.Run(name, func(t *testing.T) {
			sol, err := solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Assign[2] != 0 {
				t.Errorf("free user assigned to %d, want 0 (objective %v)", sol.Assign[2], sol.Objective)
			}
			// Objective: cell 0 has two 50 Mbps users -> 50; cell 1 -> 50.
			if math.Abs(sol.Objective-100) > 1e-6 {
				t.Errorf("objective = %v, want 100", sol.Objective)
			}
		})
	}
}

func TestAnomalyTradeoff(t *testing.T) {
	// Counter-intuitive consequence of throughput-fair sharing: the free
	// fast user (54/48 Mbps) is better placed on the extender with the
	// slow fixed user. Joining the fast cell drags its aggregate from 54
	// to ~50.8 (performance anomaly costs 3.2), while joining the slow
	// cell lifts that cell's total by ~1.9: 57.86 total vs 52.82.
	p := Problem{
		Rates: [][]float64{
			{2, 1},   // slow user fixed on 0
			{1, 54},  // fast user fixed on 1
			{54, 48}, // free fast user
		},
		Fixed: model.Assignment{0, 1, model.Unassigned},
	}
	for name, solve := range solvers() {
		t.Run(name, func(t *testing.T) {
			sol, err := solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Assign[2] != 0 {
				t.Errorf("free user assigned to %d, want 0", sol.Assign[2])
			}
			want := 2/(0.5+1.0/54) + 54
			if math.Abs(sol.Objective-want) > 1e-6 {
				t.Errorf("objective = %v, want %v", sol.Objective, want)
			}
		})
	}
}

func TestSolversAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		numExt := 2 + rng.Intn(2)  // 2-3 extenders
		numFree := 1 + rng.Intn(4) // 1-4 free users
		p := randomProblem(rng, numExt, numFree)
		want := bruteForceBest(p, numExt)

		for name, solve := range solvers() {
			sol, err := solve(p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			// Best-response local search can in principle stop at a local
			// optimum; on these small instances we require near-optimality
			// (within 2%) and usually exact agreement.
			if sol.Objective < want*0.98-1e-9 {
				t.Errorf("trial %d %s: objective %v, brute force %v\nrates=%v fixed=%v assign=%v",
					trial, name, sol.Objective, want, p.Rates, p.Fixed, sol.Assign)
			}
		}
	}
}

func TestProjectedGradientReportsIntegral(t *testing.T) {
	// On a clear-cut instance the continuous optimum is integral
	// (Theorem 3) and the solver should find it so.
	p := Problem{
		Rates: [][]float64{
			{54, 1},
			{1, 54},
			{54, 2},
		},
		Fixed: model.Assignment{0, 1, model.Unassigned},
	}
	sol, err := SolveProjectedGradient(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.IntegralAtConvergence {
		t.Error("expected integral convergence on clear-cut instance")
	}
}

func TestCompleteAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 3, 5)
		for name, solve := range solvers() {
			sol, err := solve(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, j := range sol.Assign {
				if j == model.Unassigned {
					t.Fatalf("%s left user %d unassigned", name, i)
				}
				if p.Rates[i][j] <= 0 {
					t.Fatalf("%s assigned user %d to unreachable extender %d", name, i, j)
				}
			}
			// Fixed users must not move.
			for i, j := range p.Fixed {
				if j != model.Unassigned && sol.Assign[i] != j {
					t.Fatalf("%s moved fixed user %d from %d to %d", name, i, j, sol.Assign[i])
				}
			}
		}
	}
}

func TestProjectSimplex(t *testing.T) {
	tests := []struct {
		name  string
		row   []float64
		rates []float64
		want  []float64
	}{
		{
			name:  "already on simplex",
			row:   []float64{0.5, 0.5},
			rates: []float64{1, 1},
			want:  []float64{0.5, 0.5},
		},
		{
			name:  "all mass one coord",
			row:   []float64{10, 0},
			rates: []float64{1, 1},
			want:  []float64{1, 0},
		},
		{
			name:  "unreachable zeroed",
			row:   []float64{0.7, 0.7},
			rates: []float64{1, 0},
			want:  []float64{1, 0},
		},
		{
			name:  "negative clipped",
			row:   []float64{-5, 2},
			rates: []float64{1, 1},
			want:  []float64{0, 1},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			row := append([]float64(nil), tt.row...)
			projectSimplex(row, tt.rates)
			for j := range tt.want {
				if math.Abs(row[j]-tt.want[j]) > 1e-9 {
					t.Errorf("row = %v, want %v", row, tt.want)
					break
				}
			}
		})
	}
}

func TestProjectSimplexSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		row := make([]float64, n)
		rates := make([]float64, n)
		reachable := 0
		for j := range row {
			row[j] = rng.NormFloat64() * 3
			if rng.Float64() < 0.8 || (j == n-1 && reachable == 0) {
				rates[j] = 1
				reachable++
			}
		}
		projectSimplex(row, rates)
		var sum float64
		for j, v := range row {
			if v < -1e-12 {
				t.Fatalf("negative mass %v", v)
			}
			if rates[j] <= 0 && v != 0 {
				t.Fatalf("mass on unreachable extender")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mass sums to %v", sum)
		}
	}
}

func solvers() map[string]func(Problem) (*Solution, error) {
	return map[string]func(Problem) (*Solution, error){
		"projected-gradient": func(p Problem) (*Solution, error) {
			return SolveProjectedGradient(p, Options{})
		},
		"coordinate": SolveCoordinate,
	}
}

func randomProblem(rng *rand.Rand, numExt, numFree int) Problem {
	// One fixed user per extender (Phase I invariant) plus free users.
	numUsers := numExt + numFree
	rates := make([][]float64, numUsers)
	fixed := make(model.Assignment, numUsers)
	for i := range rates {
		rates[i] = make([]float64, numExt)
		for j := range rates[i] {
			rates[i][j] = 1 + rng.Float64()*53
		}
		if i < numExt {
			fixed[i] = i
		} else {
			fixed[i] = model.Unassigned
		}
	}
	return Problem{Rates: rates, Fixed: fixed}
}

// bruteForceBest exhaustively tries every placement of the free users.
func bruteForceBest(p Problem, numExt int) float64 {
	var free []int
	for i, j := range p.Fixed {
		if j == model.Unassigned {
			free = append(free, i)
		}
	}
	assign := p.Fixed.Clone()
	best := math.Inf(-1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			obj := discreteObjective(p, assign, numExt)
			if obj > best {
				best = obj
			}
			return
		}
		for j := 0; j < numExt; j++ {
			if p.Rates[free[k]][j] <= 0 {
				continue
			}
			assign[free[k]] = j
			rec(k + 1)
		}
		assign[free[k]] = model.Unassigned
	}
	rec(0)
	return best
}

func TestCellObjectives(t *testing.T) {
	n := []float64{2, 1}
	s := []float64{1.0 / 10, 1.0 / 40} // cell 0: two users at 20 Mbps each... (s=0.1 -> T=20)
	if got, want := Total(SumThroughput, n, s), 2/0.1+1/(1.0/40); math.Abs(got-want) > 1e-9 {
		t.Errorf("Total(SumThroughput) = %v, want %v", got, want)
	}
	want := -(2*math.Log(0.1) + 1*math.Log(1.0/40))
	if got := Total(ProportionalFair, n, s); math.Abs(got-want) > 1e-9 {
		t.Errorf("Total(ProportionalFair) = %v, want %v", got, want)
	}
	// Per-cell terms: a single-user cell's throughput term is its rate.
	if got := SumThroughput(1, 1.0/40); math.Abs(got-40) > 1e-9 {
		t.Errorf("SumThroughput term = %v, want 40", got)
	}
	// Empty cells contribute exactly nothing to either objective.
	if got := SumThroughput(0, 0); got != 0 {
		t.Errorf("SumThroughput empty = %v", got)
	}
	if got := ProportionalFair(0, 0); got != 0 {
		t.Errorf("ProportionalFair empty = %v", got)
	}
}

func TestSolveCoordinateWithValidation(t *testing.T) {
	p := Problem{Rates: [][]float64{{10}}, Fixed: model.Assignment{model.Unassigned}}
	if _, err := SolveCoordinateWith(p, nil); err == nil {
		t.Error("nil objective: want error")
	}
}

func TestProportionalFairSpreadsUsers(t *testing.T) {
	// Two identical extenders, two fixed seeds, four identical free
	// users: the fair objective must balance 3/3, as must the throughput
	// objective here (symmetric case), and all users end up assigned.
	p := Problem{
		Rates: [][]float64{
			{20, 20}, {20, 20}, // seeds
			{20, 20}, {20, 20}, {20, 20}, {20, 20},
		},
		Fixed: model.Assignment{0, 1, model.Unassigned, model.Unassigned, model.Unassigned, model.Unassigned},
	}
	sol, err := SolveCoordinateWith(p, ProportionalFair)
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for _, j := range sol.Assign {
		counts[j]++
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Errorf("fair placement unbalanced: %v", counts)
	}
}

func TestProportionalFairAvoidsStarvation(t *testing.T) {
	// One strong cell (fast seed) and one weak cell (slow seed); a slow
	// free user. The throughput objective parks the slow user with the
	// slow seed (protecting the fast cell); the fair objective must not
	// leave anyone unassigned either way.
	p := Problem{
		Rates: [][]float64{
			{54, 1},
			{1, 6},
			{2, 2},
		},
		Fixed: model.Assignment{0, 1, model.Unassigned},
	}
	for name, obj := range map[string]CellObjective{
		"throughput": SumThroughput,
		"fair":       ProportionalFair,
	} {
		sol, err := SolveCoordinateWith(p, obj)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Assign[2] == model.Unassigned {
			t.Errorf("%s: user left unassigned", name)
		}
	}
}

// SolveProjectedGradient is SolveProjectedGradientWith on a throwaway
// Workspace.
func SolveProjectedGradient(p Problem, opts Options) (*Solution, error) {
	return SolveProjectedGradientWith(nil, p, opts)
}

// SolveCoordinate places the free users greedily (each on the extender
// that most increases Σ T_WiFi given current loads) and then runs
// best-response sweeps until no single-user move improves Σ T_WiFi.
func SolveCoordinate(p Problem) (*Solution, error) {
	return solveCoordinate(p, cellTerm{})
}
