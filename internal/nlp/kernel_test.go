package nlp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// phase2GoldenDigest pins the Phase II solvers' exact output on
// goldenCorpus: the SHA-256 of every solution's assignment, objective
// bits, iteration and sweep counts and integrality flag. Any change to
// the solver that is meant to be a pure speed-up must leave it alone;
// a change that alters results on purpose must say so and re-pin it.
const phase2GoldenDigest = "0dd82d169d103716cd05d9b515df0d55b0a003caa76a8b938241113c5d28f761"

// goldenInstance is one seeded Phase II problem of the golden corpus.
type goldenInstance struct {
	name    string
	p       Problem
	maxIter int
}

// goldenProblem draws users×numExt rates, reachable with probability
// reach, from 802.11g rate steps (ties are common, which exercises the
// solvers' tie-breaking) or, when continuous, uniformly from [6, 54).
// The first pinned users are fixed one per extender, as Phase I leaves
// them; everyone else is free.
func goldenProblem(rng *rand.Rand, users, numExt, pinned int, reach float64, continuous bool) Problem {
	steps := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	draw := func() float64 {
		if continuous {
			return 6 + 48*rng.Float64()
		}
		return steps[rng.Intn(len(steps))]
	}
	rates := make([][]float64, users)
	fixed := make(model.Assignment, users)
	for i := range rates {
		rates[i] = make([]float64, numExt)
		reachable := false
		for j := range rates[i] {
			if rng.Float64() < reach {
				rates[i][j] = draw()
				reachable = true
			}
		}
		if !reachable {
			rates[i][rng.Intn(numExt)] = draw()
		}
		fixed[i] = model.Unassigned
	}
	for j := 0; j < pinned && j < numExt && j < users; j++ {
		if rates[j][j] <= 0 {
			rates[j][j] = draw()
		}
		fixed[j] = j
	}
	return Problem{Rates: rates, Fixed: fixed}
}

// goldenCorpus is the fixed instance set behind phase2GoldenDigest:
// campus-shape (~90 users × 16 extenders, 16 pinned, ~70% reachable),
// sparse, dense and one 2k × 32 instance.
func goldenCorpus() []goldenInstance {
	var corpus []goldenInstance
	add := func(name string, p Problem) {
		corpus = append(corpus, goldenInstance{name: name, p: p})
	}
	rng := seed.Root(9140)
	for c := 0; c < 6; c++ {
		users := 80 + rng.Intn(21)
		add(fmt.Sprintf("campus-%d", c), goldenProblem(rng, users, 16, 16, 0.7, c%2 == 1))
	}
	rng = seed.Root(9141)
	for c := 0; c < 4; c++ {
		add(fmt.Sprintf("sparse-%d", c), goldenProblem(rng, 60+rng.Intn(40), 12, 8, 0.2, c%2 == 0))
	}
	rng = seed.Root(9142)
	for c := 0; c < 4; c++ {
		add(fmt.Sprintf("dense-%d", c), goldenProblem(rng, 30+rng.Intn(30), 4+rng.Intn(5), 4, 1, c%2 == 0))
	}
	// The 2k instance caps its gradient iterations so the corpus stays a
	// few seconds; the polish and coordinate passes still run in full.
	corpus = append(corpus, goldenInstance{
		name:    "large-2000x32",
		p:       goldenProblem(seed.Root(9143), 2000, 32, 32, 0.6, false),
		maxIter: 40,
	})
	return corpus
}

// goldenUtilities are the objective families the corpus is solved under.
var goldenUtilities = []struct {
	name string
	u    model.Utility
}{
	{"sum-rate", model.Utility{}},
	{"alpha=1", model.Utility{Alpha: 1}},
	{"alpha=2", model.Utility{Alpha: 2}},
	{"max-min", model.Utility{MaxMin: true}},
}

func hashSolution(h hash.Hash, sol *Solution) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(sol.Assign)))
	for _, j := range sol.Assign {
		put(uint64(int64(j)))
	}
	put(math.Float64bits(sol.Objective))
	put(uint64(sol.Iterations))
	put(uint64(sol.PolishSweeps))
	if sol.IntegralAtConvergence {
		put(1)
	} else {
		put(0)
	}
}

// goldenDigest solves corpus under every utility with the
// projected-gradient solver at 1 and 3 workers, and with the coordinate
// solver, and returns the hex SHA-256 of all results. The 3-worker
// solves share one Workspace across every instance and utility, so the
// digest also pins reuse across changing sizes.
func goldenDigest(t *testing.T, corpus []goldenInstance) string {
	t.Helper()
	h := sha256.New()
	var ws Workspace
	for _, inst := range corpus {
		for _, ut := range goldenUtilities {
			for _, workers := range []int{1, 3} {
				w := &ws
				if workers == 1 {
					w = nil
				}
				sol, err := SolveProjectedGradientWith(w, inst.p, Options{
					MaxIter: inst.maxIter, Workers: workers, Utility: ut.u,
				})
				if err != nil {
					t.Fatalf("%s/%s/workers=%d: %v", inst.name, ut.name, workers, err)
				}
				hashSolution(h, sol)
			}
			sol, err := SolveCoordinateWith(inst.p, AlphaFairCell(ut.u))
			if err != nil {
				t.Fatalf("%s/%s/coordinate: %v", inst.name, ut.name, err)
			}
			hashSolution(h, sol)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPhase2Golden checks the digest of the golden corpus's solutions
// against the pinned one. The digest was computed by the solver before
// its kernel rewrite.
func TestPhase2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus includes a 2k-user instance")
	}
	if got := goldenDigest(t, goldenCorpus()); got != phase2GoldenDigest {
		t.Fatalf("Phase II golden digest = %s, want %s", got, phase2GoldenDigest)
	}
}

// phase2CityDigest pins the solvers' exact output on cityCorpus, as
// phase2GoldenDigest does on goldenCorpus. It was computed before the
// vertex-row and whole-cell swap shortcuts went in.
const phase2CityDigest = "99dd6309cc18154427cd1ace98670897d1585c68e194db0c17ee39c1bf8f132b"

// City geometry of internal/city: extenders on a square grid cityCell
// meters apart, and the PHY rate's distance falloff
// cityRate0/(1+(d/cityHalf)³), cut to 0 (unreachable) below cityMin.
const (
	cityCell  = 60.0
	cityRate0 = 866.0
	cityHalf  = 25.0
	cityMin   = 5.0
)

// cityProblem draws users over a side×side grid of extenders the way
// the city workloads see them: users stand uniformly over the grid's
// square and reach every extender whose falloff rate clears cityMin.
// Rates are continuous and range from 5 to 866 Mbps, so the objective
// reaches about 10⁴. The first side² users stand within 30 m of
// extender j and are pinned to it, as Phase I leaves one user per
// extender.
func cityProblem(rng *rand.Rand, users, side int) Problem {
	numExt := side * side
	width := float64(side-1) * cityCell
	rates := make([][]float64, users)
	fixed := make(model.Assignment, users)
	for i := range rates {
		x, y := rng.Float64()*width, rng.Float64()*width
		fixed[i] = model.Unassigned
		if i < numExt {
			x = math.Min(width, math.Max(0, float64(i%side)*cityCell+60*rng.Float64()-30))
			y = math.Min(width, math.Max(0, float64(i/side)*cityCell+60*rng.Float64()-30))
			fixed[i] = i
		}
		rates[i] = make([]float64, numExt)
		for j := range rates[i] {
			dx, dy := x-float64(j%side)*cityCell, y-float64(j/side)*cityCell
			r := cityRate0 / (1 + math.Pow(math.Sqrt(dx*dx+dy*dy)/cityHalf, 3))
			if r >= cityMin {
				rates[i][j] = r
			}
		}
	}
	return Problem{Rates: rates, Fixed: fixed}
}

// cityCorpus is the instance set behind phase2CityDigest: the
// campus-wolt shape, 60 to 120 users over a 4×4 grid.
func cityCorpus() []goldenInstance {
	var corpus []goldenInstance
	rng := seed.Root(9160)
	for c := 0; c < 8; c++ {
		users := 60 + rng.Intn(61)
		corpus = append(corpus, goldenInstance{
			name: fmt.Sprintf("city-%d", c),
			p:    cityProblem(rng, users, 4),
		})
	}
	return corpus
}

// TestPhase2GoldenCity pins the solvers on city-scale rates. The
// golden corpus draws 6–54 Mbps and its objectives stay below 2048;
// here they reach about 10⁴, where polish's 1e-12 acceptance epsilon is
// under one ulp of the objective.
func TestPhase2GoldenCity(t *testing.T) {
	if got := goldenDigest(t, cityCorpus()); got != phase2CityDigest {
		t.Fatalf("Phase II city digest = %s, want %s", got, phase2CityDigest)
	}
}

// TestWorkspaceSolveAllocs pins the warm-solve allocation bound: once a
// Workspace has grown to the instance, a solve allocates only the
// returned Solution and its assignment.
func TestWorkspaceSolveAllocs(t *testing.T) {
	p := goldenProblem(seed.Root(9150), 90, 16, 16, 0.7, false)
	var w Workspace
	if _, err := SolveProjectedGradientWith(&w, p, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SolveProjectedGradientWith(&w, p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm solve allocates %v times, want <= 3", allocs)
	}
}

// BenchmarkPhase2Campus times one warm Phase II solve of a campus-shape
// instance: ~90 users over 16 extenders, 16 of them pinned by Phase I,
// each user reaching ~70% of the extenders. It runs 108 iterations
// that build 109 line-search candidates, far more than campus-wolt's
// solves (BenchmarkPhase2City gives their counts).
func BenchmarkPhase2Campus(b *testing.B) {
	benchPhase2(b, goldenProblem(seed.Root(9151), 90, 16, 16, 0.7, false))
}

// BenchmarkPhase2City times one warm Phase II solve of a city-scale
// instance: 120 users over a 4×4 grid, 16 of them pinned, rates from
// the city falloff. Its size is campus-wolt's, but not its line search:
// it converges in 4 iterations that build 24 line-search candidates (6
// per iteration), where campus-wolt's solves average about 15.5
// iterations and 24.7 candidates (1.6 per iteration). A kernel change
// that moves this bench can leave campus-wolt's core.phase2_p50_us
// flat; iters/op shows which shape a reading comes from. Here the
// polish pass costs about as much as the relaxation.
func BenchmarkPhase2City(b *testing.B) {
	benchPhase2(b, cityProblem(seed.Root(9161), 120, 4))
}

// benchPhase2 times warm solves of p on one Workspace and reports the
// solver's iterations per solve.
func benchPhase2(b *testing.B, p Problem) {
	var w Workspace
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveProjectedGradientWith(&w, p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters += sol.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// michelotOracle is projectOnSupport as it stood before the vertex fast
// path: Michelot's filter run to its fixed point on every row.
func michelotOracle(ps *projScratch, row []float64, support []int) {
	if len(support) == 0 {
		return
	}
	if cap(ps.vals) < len(support) {
		ps.vals = make([]float64, len(support))
		ps.work = make([]float64, len(support))
	}
	vals := ps.vals[:len(support)]
	act := ps.work[:len(support)]
	sum := 0.0
	for k, j := range support {
		v := row[j]
		vals[k] = v
		act[k] = v
		sum += v
	}
	var theta float64
	for {
		theta = (sum - 1) / float64(len(act))
		kept := 0
		newSum := 0.0
		for _, v := range act {
			if v > theta {
				act[kept] = v
				kept++
				newSum += v
			}
		}
		if kept == len(act) {
			break
		}
		act = act[:kept]
		sum = newSum
	}
	for k, j := range support {
		v := vals[k] - theta
		if v < 0 {
			v = 0
		}
		row[j] = v
	}
}

// checkProjectionExact projects vals (restricted to the coordinates
// selected by mask's low bits) with projectOnSupport and with the
// oracle, and fails unless every output bit agrees.
func checkProjectionExact(t *testing.T, vals []float64, mask uint8) {
	t.Helper()
	var support []int
	got := make([]float64, len(vals))
	for j, v := range vals {
		if mask&(1<<j) != 0 {
			support = append(support, j)
			got[j] = v
		}
	}
	want := append([]float64(nil), got...)
	var ps, po projScratch
	projectOnSupport(&ps, got, support)
	michelotOracle(&po, want, support)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("projection of %v on %v: coordinate %d = %v, oracle %v",
				vals, support, j, got[j], want[j])
		}
	}
}

// FuzzProjectOnSupportExact checks that the projection with its vertex
// fast path is bit-identical to Michelot's loop. The seeds sit on the
// fast path's decision boundary — runner-up at top−1, at top−1 ± k ulp,
// around top−1−margin — and on NaN, ±Inf, ties and huge values.
func FuzzProjectOnSupportExact(f *testing.F) {
	steps := func(x float64, k int) float64 {
		dir := math.Inf(1)
		if k < 0 {
			dir, k = math.Inf(-1), -k
		}
		for ; k > 0; k-- {
			x = math.Nextafter(x, dir)
		}
		return x
	}
	// margin of a full 5-coordinate support with max |v| = 1.
	margin := (5.0 + 2) * (5 + 2) * (1 + 1) * 0x1p-50
	for _, top := range []float64{1, 0.7, 0.25, 0, -3} {
		for _, k := range []int{0, 1, -1, 2, -2, 16, -16, 1 << 12, -(1 << 12)} {
			other := steps(top-1, k)
			f.Add(top, other, other-5, 0.0, -0.5, uint8(31))
			f.Add(top, other, 0.0, 0.0, 0.0, uint8(3))
			f.Add(top, steps(top-1-margin, k), -1.0, top-2, 0.0, uint8(15))
		}
	}
	// Without the margin, the fast path would end this row on its top
	// value while Michelot keeps the two copies of fl(top−1) active.
	f.Add(-0x1.76e28b611d9dap+01, -0x1.f3efb51727ef7p+01, -0x1.edc516c23b3b3p+00,
		-0x1.76e28b611d9dap+01, -0x1.bbe04dd25f284p+01, uint8(31))
	f.Add(0.6, 0.6, -1.0, 0.0, 0.0, uint8(7))
	f.Add(0.5, 0.0, 0.0, 0.0, 0.0, uint8(1))
	f.Add(math.NaN(), 0.3, -2.0, 0.0, 0.0, uint8(7))
	f.Add(0.9, math.NaN(), -2.0, 0.0, 0.0, uint8(7))
	f.Add(math.Inf(1), 0.3, -2.0, 0.0, 0.0, uint8(7))
	f.Add(0.9, math.Inf(-1), -2.0, 0.0, 0.0, uint8(7))
	f.Add(0x1p47, 0x1p47-2, 0.0, 0.0, 0.0, uint8(3))
	f.Add(0x1p53, 0.0, 0.0, 0.0, 0.0, uint8(3))
	// fl(top−1) = top here: Michelot empties its active set and returns
	// +Inf, which only the margin < 1 magnitude guard preserves.
	f.Add(0x1p60, 0.0, 0.0, 0.0, 0.0, uint8(3))
	f.Add(1e300, -1e300, 1e300, 0.0, 0.0, uint8(7))
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64, mask uint8) {
		checkProjectionExact(t, []float64{a, b, c, d, e}, mask)
	})
}

// FuzzVertexRowExact checks candRows on a single-mass row of x (mass
// mu on one support coordinate) against building the candidate in full
// and projecting it with michelotOracle: every output bit and the row's
// single-mass mark must agree. Gradients may be NaN, ±Inf or huge, the
// step may be +Inf, and the candidate buffer may still hold an earlier
// attempt: mass on one coordinate (prev ≥ 0) or a general row.
func FuzzVertexRowExact(f *testing.F) {
	f.Add(1.0, 0.5, 0.3, -0.2, 0.1, -3.0, 0.0, uint8(0), uint8(31), int8(-1))
	f.Add(1.0, 0.5, 4.0, -0.2, 0.1, -3.0, 0.0, uint8(0), uint8(31), int8(2))
	f.Add(1.0, 0.5, 0.3, math.NaN(), 0.1, -3.0, 0.0, uint8(0), uint8(31), int8(0))
	f.Add(1.0, 0.5, 0.3, math.Inf(-1), 0.1, -3.0, 0.0, uint8(0), uint8(31), int8(1))
	f.Add(1.0, math.Inf(1), 0.3, -0.2, 0.1, -3.0, 0.0, uint8(0), uint8(31), int8(-1))
	f.Add(0.75, 0.125, 1e300, -1e300, 0.0, 0.0, 0.0, uint8(1), uint8(7), int8(-1))
	f.Add(1.0, 0.5, 2.0, 0.0, 0.0, 0.0, 0.0, uint8(0), uint8(1), int8(-1))
	f.Add(-0x1.76e28b611d9dap+01, 1.0, 0.0, -2.0, -0x1.f3efb51727ef7p+01, 0.0, 0.0, uint8(0), uint8(31), int8(-1))
	f.Fuzz(func(t *testing.T, mu, step, a, b, c, d, e float64, at, mask uint8, prev int8) {
		var sup []int
		for j := 0; j < 5; j++ {
			if mask&(1<<j) != 0 {
				sup = append(sup, j)
			}
		}
		if len(sup) == 0 {
			return
		}
		top := sup[int(at)%len(sup)]
		x, grad, cand := make([]float64, 5), []float64{a, b, c, d, e}, make([]float64, 5)
		x[top] = mu
		w := &Workspace{
			x: [][]float64{x}, grad: [][]float64{grad}, cand: [][]float64{cand},
			supports: [][]int{sup}, proj: make([]projScratch, 1), step: math.Abs(step),
			xv: []int{top}, cv: []int{-1},
		}
		if prev >= 0 {
			w.cv[0] = sup[int(prev)%len(sup)]
			cand[w.cv[0]] = 0.75
		} else {
			for _, j := range sup {
				cand[j] = 0.25
			}
		}
		w.candRows(0, 1)
		want := make([]float64, 5)
		for _, j := range sup {
			want[j] = x[j] + w.step*grad[j]
		}
		michelotOracle(&projScratch{}, want, sup)
		for j := range want {
			if math.Float64bits(cand[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %v + %v·%v on %v: coordinate %d = %v, oracle %v",
					x, w.step, grad, sup, j, cand[j], want[j])
			}
		}
		if got, want := w.cv[0], singleMass(want, sup); got != want {
			t.Fatalf("single-mass mark %d, want %d", got, want)
		}
	})
}

// TestProjectOnSupportExactNearVertex sweeps random rows built around
// the fast path's decision band: runner-ups at fl(top−1) minus a few
// binary orders of magnitude (down to below an ulp), spread values and
// far negative ones, over magnitudes from 2⁻²⁰ to 2³⁵.
func TestProjectOnSupportExactNearVertex(t *testing.T) {
	rng := seed.Root(9152)
	vals := make([]float64, 8)
	for trial := 0; trial < 200000; trial++ {
		scale := math.Ldexp(1, rng.Intn(56)-20)
		top := (rng.Float64()*2 - 1) * scale
		for j := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[j] = top - 1 - math.Ldexp(float64(rng.Intn(8)), rng.Intn(60)-55)
			case 1:
				vals[j] = top - 1 - rng.Float64()*scale
			default:
				vals[j] = -rng.Float64() * scale * 4
			}
		}
		vals[rng.Intn(len(vals))] = top
		checkProjectionExact(t, vals, uint8(rng.Intn(256)))
	}
}
