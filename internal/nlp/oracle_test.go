package nlp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// oracleSolve is SolveProjectedGradientWith, with its gradient,
// candidate build, cell loads and polish, as they stood before vertex
// rows skipped the line-search rebuild and polish rejected whole cells
// of swaps: every row is rebuilt and projected on every attempt (with
// michelotOracle, so the shared vertex decision is not on this path
// either), every support coordinate is summed into the loads, and every
// swap pair is scored. Its rounding and greedy start keep the solver's
// fallback to a user's first reachable extender. It runs sequentially
// on a fresh Workspace.
func oracleSolve(p Problem, opts Options) (*Solution, error) {
	w := &Workspace{}
	opts = opts.withDefaults()
	numExt, err := w.attach(p, termFor(opts.Utility))
	if err != nil {
		return nil, err
	}
	free := w.free
	if len(free) == 0 {
		assign := p.Fixed.Clone()
		obj := discreteObjective(p, assign, numExt)
		return &Solution{Assign: assign, Objective: obj, IntegralAtConvergence: true}, nil
	}
	f := len(free)
	w.alpha = surrogateAlpha(opts.Utility)
	w.xb, w.cb, w.gb = make([]float64, f*numExt), make([]float64, f*numExt), make([]float64, f*numExt)
	w.x = rowsOver(nil, w.xb, f, numExt)
	w.cand = rowsOver(nil, w.cb, f, numExt)
	w.grad = rowsOver(nil, w.gb, f, numExt)
	w.cellsN, w.cellsS = make([]float64, numExt), make([]float64, numExt)
	w.invS2, w.gN, w.gS = make([]float64, numExt), make([]float64, numExt), make([]float64, numExt)
	var ps projScratch

	for k, sup := range w.supports {
		for _, j := range sup {
			w.x[k][j] = 1 / float64(len(sup))
		}
	}
	prev := oracleCells(w, w.x)
	step := pgStep
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		if w.alpha == 0 {
			for j := 0; j < numExt; j++ {
				if s := w.cellsS[j]; s > 0 {
					w.invS2[j] = 1 / (s * s)
				} else {
					w.invS2[j] = 0
				}
			}
			for k := range free {
				row, invR, rates := w.grad[k], w.invR[k], w.rates[k]
				for _, j := range w.supports[k] {
					switch s := w.cellsS[j]; {
					case invR[j] == 0:
						row[j] = 0
					case s <= 0:
						row[j] = rates[j]
					default:
						row[j] = (s - w.cellsN[j]*invR[j]) * w.invS2[j]
					}
				}
			}
		} else {
			for j := 0; j < numExt; j++ {
				if s := w.cellsS[j]; s > 0 {
					w.gN[j] = perUserUtil(w.alpha, 1/s)
					w.gS[j] = -w.cellsN[j] * math.Pow(s, w.alpha-2)
				} else {
					w.gN[j], w.gS[j] = 0, 0
				}
			}
			for k := range free {
				row, invR, rates := w.grad[k], w.invR[k], w.rates[k]
				for _, j := range w.supports[k] {
					switch {
					case invR[j] == 0:
						row[j] = 0
					case w.cellsS[j] <= 0:
						row[j] = perUserUtil(w.alpha, rates[j])
					default:
						row[j] = w.gN[j] + w.gS[j]*invR[j]
					}
				}
			}
		}

		improved := false
		for attempt := 0; attempt < 20; attempt++ {
			for k := range free {
				row, x, grad, sup := w.cand[k], w.x[k], w.grad[k], w.supports[k]
				for _, j := range sup {
					row[j] = x[j] + step*grad[j]
				}
				michelotOracle(&ps, row, sup)
			}
			obj := oracleCells(w, w.cand)
			if obj > prev {
				w.x, w.cand = w.cand, w.x
				improved = obj-prev >= pgTol
				prev = obj
				break
			}
			step /= 2
			if step < 1e-9 {
				break
			}
		}
		if !improved {
			break
		}
	}

	integral := true
	for k := range w.x {
		for _, mass := range w.x[k] {
			if mass > 1e-6 && mass < 1-1e-6 {
				integral = false
			}
		}
	}
	assign := p.Fixed.Clone()
	for k, i := range free {
		sup := w.supports[k]
		best, bestMass := sup[0], -1.0
		for _, j := range sup {
			if mass := w.x[k][j]; mass > bestMass {
				best, bestMass = j, mass
			}
		}
		assign[i] = best
	}
	obj, sweeps := oraclePolish(w, p, assign)

	alt := p.Fixed.Clone()
	n, s := w.n, w.s
	copy(n, w.fixedN)
	copy(s, w.fixedS)
	for k, i := range w.free {
		invR, sup := w.invR[k], w.supports[k]
		bestJ, bestGain := sup[0], math.Inf(-1)
		for _, j := range sup {
			gain := w.term.at(n[j]+1, s[j]+invR[j]) - w.term.at(n[j], s[j])
			if gain > bestGain {
				bestJ, bestGain = j, gain
			}
		}
		alt[i] = bestJ
		n[bestJ], s[bestJ] = n[bestJ]+1, s[bestJ]+invR[bestJ]
	}
	altObj, altSweeps := oraclePolish(w, p, alt)
	sweeps += altSweeps
	if altObj > obj+1e-12 {
		copy(assign, alt)
		obj = altObj
	}
	return &Solution{
		Assign:                assign,
		Objective:             obj,
		Iterations:            iters,
		PolishSweeps:          sweeps,
		IntegralAtConvergence: integral,
	}, nil
}

// oracleCells sums every support coordinate of x into the loads.
func oracleCells(w *Workspace, x [][]float64) float64 {
	copy(w.cellsN, w.fixedN)
	copy(w.cellsS, w.fixedS)
	for k, sup := range w.supports {
		row, invR := x[k], w.invR[k]
		for _, j := range sup {
			mass := row[j]
			w.cellsN[j] += mass
			w.cellsS[j] += mass * invR[j]
		}
	}
	return w.total(w.cellsN, w.cellsS)
}

// oraclePolish scores every single move and every swap pair.
func oraclePolish(w *Workspace, p Problem, assign model.Assignment) (float64, int) {
	const maxSweeps = 100
	n, s, contrib, ext := w.n, w.s, w.contrib, w.ext
	loadInto(n, s, p, assign)
	for j := range contrib {
		contrib[j] = w.term.at(n[j], s[j])
	}
	resum := func() float64 {
		var total float64
		for _, c := range contrib {
			total += c
		}
		return total
	}
	obj := resum()
	for k, i := range w.free {
		ext[k] = assign[i]
	}
	sweeps := 0
	for sweep := 0; sweep < maxSweeps; sweep++ {
		sweeps++
		changed := false
		for k, current := range ext {
			invR := w.invR[k]
			invCur := invR[current]
			fromDelta := w.term.at(n[current]-1, s[current]-invCur) - contrib[current]
			bestJ, bestObj := current, obj
			for _, j := range w.supports[k] {
				if j == current {
					continue
				}
				cand := obj + fromDelta + w.term.at(n[j]+1, s[j]+invR[j]) - contrib[j]
				if cand > bestObj+1e-12 {
					bestJ, bestObj = j, cand
				}
			}
			if bestJ != current {
				n[current], s[current] = n[current]-1, s[current]-invCur
				n[bestJ], s[bestJ] = n[bestJ]+1, s[bestJ]+invR[bestJ]
				contrib[current] = w.term.at(n[current], s[current])
				contrib[bestJ] = w.term.at(n[bestJ], s[bestJ])
				obj = resum()
				ext[k] = bestJ
				changed = true
			}
		}
		for a := range ext {
			ratesA, invA := w.rates[a], w.invR[a]
			for b := a + 1; b < len(ext); b++ {
				ja, jb := ext[a], ext[b]
				if ja == jb || ratesA[jb] <= 0 || w.rates[b][ja] <= 0 {
					continue
				}
				invB := w.invR[b]
				sa := s[ja] - invA[ja] + invB[ja]
				sb := s[jb] - invB[jb] + invA[jb]
				cand := obj - contrib[ja] - contrib[jb] + w.term.at(n[ja], sa) + w.term.at(n[jb], sb)
				if cand > obj+1e-12 {
					s[ja], s[jb] = sa, sb
					ext[a], ext[b] = jb, ja
					contrib[ja] = w.term.at(n[ja], s[ja])
					contrib[jb] = w.term.at(n[jb], s[jb])
					obj = resum()
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for k, i := range w.free {
		assign[i] = ext[k]
	}
	return obj, sweeps
}

// fuzzProblem draws a small Phase II instance from the fuzzer's
// choices: users×numExt rates of the given kind, each reachable with
// probability reach, and the first pinned users fixed one per extender.
// Kinds: 0 draws 802.11g steps (ties), 1 draws uniformly from [6, 54),
// 2 uses the city falloff on a grid that fits numExt, where a free user
// instead copies an earlier user's row with probability 1−reach (ties
// at city magnitudes), and 3 mixes steps with r = +Inf (1/r = 0) and
// r = 2⁻¹⁰²² (the least rate validate accepts: 1/r = 2¹⁰²², so a few
// such users overflow a cell's sum and the α-fair terms). A low reach
// leaves single-extender supports and, with few users, empty cells.
func fuzzProblem(rng *rand.Rand, users, numExt, kind, pinned int, reach float64) Problem {
	if kind == 2 {
		side := int(math.Ceil(math.Sqrt(float64(numExt))))
		p := cityProblem(rng, users, side)
		for i, row := range p.Rates {
			// Trim the grid to numExt extenders, keeping every row
			// reachable and every pin valid.
			p.Rates[i] = row[:numExt]
			if p.Fixed[i] >= numExt || (i >= pinned && p.Fixed[i] != model.Unassigned) {
				p.Fixed[i] = model.Unassigned
			}
			if p.Fixed[i] == model.Unassigned && !anyPositive(p.Rates[i]) {
				p.Rates[i][rng.Intn(numExt)] = cityMin + rng.Float64()*cityRate0
			}
			if i > 0 && p.Fixed[i] == model.Unassigned && rng.Float64() >= reach {
				p.Rates[i] = p.Rates[rng.Intn(i)]
			}
		}
		return p
	}
	steps := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	draw := func() float64 {
		switch kind {
		case 1:
			return 6 + 48*rng.Float64()
		case 3:
			switch rng.Intn(12) {
			case 0, 1, 2, 3:
				return math.Inf(1)
			case 4:
				return 0x1p-1022
			}
		}
		return steps[rng.Intn(len(steps))]
	}
	rates := make([][]float64, users)
	fixed := make(model.Assignment, users)
	for i := range rates {
		rates[i] = make([]float64, numExt)
		for j := range rates[i] {
			if rng.Float64() < reach {
				rates[i][j] = draw()
			}
		}
		if !anyPositive(rates[i]) {
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

func anyPositive(row []float64) bool {
	for _, r := range row {
		if r > 0 {
			return true
		}
	}
	return false
}

// FuzzPhase2KernelExact checks that a full projected-gradient solve —
// the vertex-row line search, the single-mass cell loads and polish's
// whole-cell swap rejection included — is bit-identical to oracleSolve,
// which has none of them. Seeds cover ties, single-extender supports,
// r = +Inf, empty cells and city-scale rates, under every utility.
func FuzzPhase2KernelExact(f *testing.F) {
	// args: rng seed, users, extenders, kind|pinned<<2, reach step, utility
	f.Add(int64(1), uint8(40), uint8(8), uint8(0|4<<2), uint8(3), uint8(0))
	f.Add(int64(2), uint8(60), uint8(16), uint8(2|16<<2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(90), uint8(16), uint8(2|16<<2), uint8(0), uint8(2))
	f.Add(int64(4), uint8(30), uint8(12), uint8(0|2<<2), uint8(0), uint8(0))
	f.Add(int64(5), uint8(25), uint8(6), uint8(3|3<<2), uint8(2), uint8(0))
	f.Add(int64(6), uint8(25), uint8(6), uint8(3|3<<2), uint8(2), uint8(1))
	f.Add(int64(7), uint8(6), uint8(12), uint8(1|0<<2), uint8(1), uint8(0))
	f.Add(int64(8), uint8(50), uint8(9), uint8(2|9<<2), uint8(1), uint8(3))
	f.Add(int64(9), uint8(35), uint8(5), uint8(1|5<<2), uint8(3), uint8(1))
	f.Add(int64(10), uint8(70), uint8(4), uint8(0|4<<2), uint8(3), uint8(0))
	// With r = +Inf a cell's inverse-rate sum can be 0 or a rounding
	// residue; the first two fail when the swap rejection drops its
	// bound, the third when it drops its positivity test.
	f.Add(int64(191), uint8(255), uint8(183), uint8(147), uint8(114), uint8(56))
	f.Add(int64(64), uint8(56), uint8(25), uint8(15), uint8(2), uint8(48))
	f.Add(int64(-56), uint8(35), uint8(88), uint8(3), uint8(190), uint8(76))
	f.Fuzz(func(t *testing.T, seedV int64, users, numExt, kind, reach, util uint8) {
		nu, ne := 1+int(users)%100, 1+int(numExt)%16
		reaches := []float64{0.1, 0.3, 0.6, 1}
		p := fuzzProblem(seed.Root(seedV), nu, ne, int(kind&3), int(kind>>2), reaches[reach%4])
		ut := goldenUtilities[int(util)%len(goldenUtilities)]
		opts := Options{Utility: ut.u}
		want, err := oracleSolve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			got, err := SolveProjectedGradient(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolution(got, want) {
				t.Fatalf("%d users × %d extenders, %s, workers=%d: got %+v, oracle %+v",
					nu, ne, ut.name, workers, *got, *want)
			}
		}
	})
}

// sameSolution reports whether two solutions agree bit for bit.
func sameSolution(a, b *Solution) bool {
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		a.Iterations != b.Iterations || a.PolishSweeps != b.PolishSweeps ||
		a.IntegralAtConvergence != b.IntegralAtConvergence || len(a.Assign) != len(b.Assign) {
		return false
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	return true
}
