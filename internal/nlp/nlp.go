// Package nlp solves WOLT's Phase II nonlinear program (Problem 2 in the
// paper): with the Phase I users pinned to their extenders, place the
// remaining users so that the total WiFi throughput Σ_j T_WiFi_j is
// maximized, where
//
//	T_WiFi_j = N_j / S_j,   N_j = #users on j,   S_j = Σ_{i∈N_j} 1/r_ij.
//
// The paper solves the continuous relaxation with an interior-point method
// and stops when the improvement drops below 1e-5; Theorem 3 proves the
// relaxation has integral optima. This package provides:
//
//   - SolveProjectedGradientWith: a first-order interior solver over per-user
//     simplices using the paper's stopping criterion, followed by the
//     Theorem-3 mass-shifting argument to extract an integral solution.
//
//   - SolveCoordinateWith: a purely discrete best-response (coordinate ascent)
//     solver used for cross-validation and as a cheap alternative.
//
// Both return complete assignments; tests assert they agree on optima.
//
// # Cost
//
// A solve touches only what its result depends on: every per-user loop
// (gradient, candidate build, cell loads, polish moves) walks the user's
// reachable extenders, precomputed once per solve together with the
// inverse rates 1/r_ij, and the simplex projection short-cuts the common
// case where one coordinate dominates (see projectOnSupport). Work that
// cannot move a bit is skipped: a row of the iterate with all its mass
// on one extender takes its projection from one read of its gradient
// row and rewrites one coordinate (candRows), the cell loads add such a
// row at its one index (cells), and the sum-rate swap scan visits only
// the members of cells that a swap could still improve (queueSwaps). A
// Workspace carries every buffer across solves, so a warm solve
// allocates only the Solution it returns. None of this changes a bit of
// any result: TestPhase2Golden and TestPhase2GoldenCity pin the output
// on seeded corpora, and FuzzPhase2KernelExact compares whole solves
// with a copy of the solver without the shortcuts.
//
// # Intra-solve parallelism
//
// Options.Workers fans the per-user work of one solve out over
// internal/parallel: gradient rows and simplex projections are
// row-independent and split into fixed-size row chunks. Chunk boundaries
// never depend on the worker count and every row is a pure function of
// the current iterate, so results are bit-identical for every Workers
// value (DESIGN.md §7). The discrete polish phase is sequential: since
// the cell objectives decompose as Σ_j term(n_j, s_j), a candidate move
// is scored by the two affected cells' term deltas in O(1) — cheaper
// than fanning full rescans out ever was.
package nlp

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/parallel"
)

// Problem is a Phase II instance.
type Problem struct {
	// Rates is the full user × extender WiFi rate matrix r_ij.
	// Non-positive entries mark unreachable extenders; a reachable rate
	// must be at least 2⁻¹⁰²² (the smallest normal float64), so that
	// 1/r_ij is finite.
	Rates [][]float64
	// Fixed holds the Phase I decisions: Fixed[i] is user i's pinned
	// extender, or model.Unassigned for the users Phase II must place.
	Fixed model.Assignment
}

// validate checks p and returns its extender count and its free users,
// listed in buf's storage. It rejects subnormal rates: 1/r of one can
// overflow to +Inf, and a load would then add 0·Inf = NaN for a user
// holding no mass there.
func (p Problem) validate(buf []int) (numExt int, free []int, err error) {
	free = buf[:0]
	if len(p.Rates) == 0 {
		return 0, nil, fmt.Errorf("nlp: no users")
	}
	numExt = len(p.Rates[0])
	if numExt == 0 {
		return 0, nil, fmt.Errorf("nlp: no extenders")
	}
	if len(p.Fixed) != len(p.Rates) {
		return 0, nil, fmt.Errorf("nlp: fixed assignment covers %d users, rates cover %d",
			len(p.Fixed), len(p.Rates))
	}
	for i, row := range p.Rates {
		if len(row) != numExt {
			return 0, nil, fmt.Errorf("nlp: user %d has %d rates, want %d", i, len(row), numExt)
		}
		reachable := false
		for j, r := range row {
			if r > 0 && r < 0x1p-1022 {
				return 0, nil, fmt.Errorf("nlp: user %d has subnormal rate %g to extender %d", i, r, j)
			}
			reachable = reachable || r > 0
		}
		j := p.Fixed[i]
		switch {
		case j == model.Unassigned:
			if !reachable {
				return 0, nil, fmt.Errorf("nlp: free user %d reaches no extender", i)
			}
			free = append(free, i)
		case j < 0 || j >= numExt:
			return 0, nil, fmt.Errorf("nlp: user %d fixed to invalid extender %d", i, j)
		case row[j] <= 0:
			return 0, nil, fmt.Errorf("nlp: user %d fixed to unreachable extender %d", i, j)
		}
	}
	return numExt, free, nil
}

// The projected-gradient schedule: iteration stops once an accepted
// step improves the objective by less than pgTol (the paper's 1e-5),
// and each solve starts at step pgStep, halving it whenever a step does
// not improve the objective.
const (
	pgTol  = 1e-5
	pgStep = 0.5
)

// Options tunes the projected-gradient solver.
type Options struct {
	// MaxIter caps gradient iterations (default 2000).
	MaxIter int
	// Workers bounds the goroutines used inside one solve (gradient
	// rows, simplex projections). <= 1 runs fully sequentially; results
	// are bit-identical for every value.
	Workers int
	// Utility selects the objective family the relaxation ascends and
	// the polish/coordinate cross-check optimize: the zero value is
	// Problem 2's sum-throughput (bit-identical to the pre-utility
	// solver), finite α uses the α-fair cell term n·u_α(1/s), and
	// max-min is approximated by the smooth MaxMinSurrogateAlpha member
	// (see AlphaFairCell).
	Utility model.Utility
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Solution is a completed Phase II placement.
type Solution struct {
	// Assign is the complete assignment (fixed users keep their Phase I
	// extender).
	Assign model.Assignment
	// Objective is Σ_j T_WiFi_j of the final integral assignment.
	Objective float64
	// Iterations is the number of solver iterations performed.
	Iterations int
	// PolishSweeps is the total number of discrete best-response sweeps
	// (single moves + pairwise swaps) run while polishing the integral
	// solution, summed over every polish pass of the solve.
	PolishSweeps int
	// IntegralAtConvergence reports whether the continuous iterate was
	// already (numerically) integral when the gradient solver stopped —
	// the empirical observation the paper makes about Theorem 3.
	IntegralAtConvergence bool
}

// rowChunk is the fixed number of free-user rows per parallel task. It
// must not depend on the worker count (chunk boundaries are part of the
// deterministic schedule); it only bounds task granularity.
const rowChunk = 64

// Workspace holds the Phase II solvers' state — iterates, gradient,
// cell loads, inverse rates, supports and polish buffers — so repeated
// solves reuse one set of allocations. The zero value is ready to use;
// buffers grow to the largest instance seen and are retained. A
// Workspace is not safe for concurrent use; give each worker goroutine
// its own.
type Workspace struct {
	free []int
	// rates[k] is free user k's rate row and invR[k][j] = 1/rates[k][j]
	// for every j: scorers read the quotient instead of dividing, so
	// they see the same bits. Off-support entries (±Inf or negative)
	// are read only where a scorer would divide by that same rate.
	// supports[k] lists user k's reachable extenders in ascending
	// order: every per-user loop walks it instead of the full row.
	rates    [][]float64
	invR     [][]float64
	invRb    []float64
	supports [][]int
	supBuf   []int
	// fixedN/fixedS are the Phase I users' per-extender loads, the
	// starting point of every load computation.
	fixedN, fixedS []float64
	term           cellTerm

	// Projected-gradient state. cellsN/cellsS hold the loads of the
	// most recent cells call; invS2 the per-extender 1/S_j² of the
	// current iterate and gN/gS the α-fair partials ∂f/∂N_j and ∂f/∂S_j,
	// both hoisted out of the gradient's row loop. alpha is the
	// (surrogate) fairness exponent; alpha == 0 selects the
	// multiply-only sum-throughput gradient. step is the line search's
	// current step, read by candRows.
	x, cand, grad  [][]float64
	xb, cb, gb     []float64
	cellsN, cellsS []float64
	invS2, gN, gS  []float64
	proj           []projScratch
	alpha          float64
	step           float64
	// xv[k] (cv[k]) is t when row k of x (cand) is single-mass: every
	// support coordinate but t holds exactly 0. It is -1 otherwise.
	xv, cv []int

	// Polish state: per-extender loads and cached cell terms, the
	// extender of each free user, and the coordinate start's assignment.
	n, s, contrib []float64
	ext           []int
	alt           model.Assignment
	// Swap-scan state (see queueSwaps): cell c's free users in
	// ascending order, members[memberAt[c]:memberAt[c+1]]; under the
	// sum-rate term minInv[j*numExt+c], the least 1/r_kj over c's
	// members k that reach j, and maxOwn[c], the greatest 1/r_kc over
	// them; and the bitset of partners queued for the current user.
	members, memberAt []int
	minInv, maxOwn    []float64
	queued            []uint64
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is too small. Retained contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rowsOver shapes buf (at least rows*cols long) into a rows×cols matrix,
// reusing the row headers.
func rowsOver(m [][]float64, buf []float64, rows, cols int) [][]float64 {
	m = grow(m, rows)
	for i := range m {
		m[i] = buf[i*cols : (i+1)*cols]
	}
	return m
}

// attach validates p and sizes the state both solvers share: the free
// users, their rate rows, inverse rates and supports, the Phase I loads
// and the polish buffers.
func (w *Workspace) attach(p Problem, term cellTerm) (numExt int, err error) {
	numExt, free, err := p.validate(w.free)
	if err != nil {
		return 0, err
	}
	w.free = free
	w.term = term
	f := len(free)
	w.rates = grow(w.rates, f)
	w.invRb = grow(w.invRb, f*numExt)
	w.invR = rowsOver(w.invR, w.invRb, f, numExt)
	reachable := 0
	for k, i := range free {
		row, inv := p.Rates[i], w.invR[k]
		w.rates[k] = row
		for j, r := range row {
			inv[j] = 1 / r
			if r > 0 {
				reachable++
			}
		}
	}
	w.supports = grow(w.supports, f)
	w.supBuf = grow(w.supBuf, reachable)[:0]
	for k, row := range w.rates {
		lo := len(w.supBuf)
		for j, r := range row {
			if r > 0 {
				w.supBuf = append(w.supBuf, j)
			}
		}
		w.supports[k] = w.supBuf[lo:len(w.supBuf):len(w.supBuf)]
	}
	w.fixedN, w.fixedS = grow(w.fixedN, numExt), grow(w.fixedS, numExt)
	loadInto(w.fixedN, w.fixedS, p, p.Fixed)
	w.n, w.s = grow(w.n, numExt), grow(w.s, numExt)
	w.contrib = grow(w.contrib, numExt)
	w.ext = grow(w.ext, f)
	w.members, w.memberAt = grow(w.members, f), grow(w.memberAt, numExt+1)
	w.minInv, w.maxOwn = grow(w.minInv, numExt*numExt), grow(w.maxOwn, numExt)
	w.queued = grow(w.queued, (f+63)/64)
	return numExt, nil
}

// forRows runs fn over the free-user rows [0, len(free)) split into
// rowChunk-sized ranges on the given number of workers. fn must only
// write state owned by its range. fn is a method expression, so the
// sequential path allocates nothing.
func (w *Workspace) forRows(workers int, fn func(w *Workspace, lo, hi int)) {
	n := len(w.free)
	chunks := (n + rowChunk - 1) / rowChunk
	if chunks <= 1 || workers <= 1 {
		fn(w, 0, n)
		return
	}
	_ = parallel.ForEach(context.Background(), chunks, workers, func(c int) error {
		lo := c * rowChunk
		hi := lo + rowChunk
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
		return nil
	})
}

// cells recomputes the fractional per-extender loads of iterate x into
// cellsN/cellsS and returns the relaxation objective; vert marks x's
// single-mass rows (xv or cv). The accumulation order (fixed load
// first, then free rows in ascending k) is fixed, so the result is
// bit-identical however the caller parallelizes the rest of the
// iteration. Off-support coordinates, and every coordinate of a
// single-mass row but its one, hold mass 0, and adding 0·(1/r) = 0 to a
// non-negative load is exact (1/r is finite; see validate), so skipping
// them changes no bit.
func (w *Workspace) cells(x [][]float64, vert []int) float64 {
	copy(w.cellsN, w.fixedN)
	copy(w.cellsS, w.fixedS)
	for k, sup := range w.supports {
		row, invR := x[k], w.invR[k]
		if t := vert[k]; t >= 0 {
			w.cellsN[t] += row[t]
			w.cellsS[t] += row[t] * invR[t]
			continue
		}
		for _, j := range sup {
			mass := row[j]
			w.cellsN[j] += mass
			w.cellsS[j] += mass * invR[j]
		}
	}
	return w.total(w.cellsN, w.cellsS)
}

// total is Total under the workspace's cell term.
func (w *Workspace) total(n, s []float64) float64 {
	var total float64
	for j := range n {
		total += w.term.at(n[j], s[j])
	}
	return total
}

// gradSumRows writes rows [lo, hi) of the sum-throughput gradient
// ∂(Σ N_j/S_j)/∂x_kj = (S_j − N_j/r_kj)/S_j² on each row's support.
func (w *Workspace) gradSumRows(lo, hi int) {
	for k := lo; k < hi; k++ {
		row, invR, rates := w.grad[k], w.invR[k], w.rates[k]
		for _, j := range w.supports[k] {
			if invR[j] == 0 {
				// r = +Inf: no finite inverse rate, no gradient.
				row[j] = 0
				continue
			}
			s := w.cellsS[j]
			if s <= 0 {
				// Empty cell: joining it alone yields throughput r.
				row[j] = rates[j]
				continue
			}
			row[j] = (s - w.cellsN[j]*invR[j]) * w.invS2[j]
		}
	}
}

// gradAlphaRows writes rows [lo, hi) of the α-fair gradient
// ∂f/∂x_kj = ∂f/∂N_j + ∂f/∂S_j·(1/r_kj) on each row's support.
func (w *Workspace) gradAlphaRows(lo, hi int) {
	for k := lo; k < hi; k++ {
		row, invR, rates := w.grad[k], w.invR[k], w.rates[k]
		for _, j := range w.supports[k] {
			if invR[j] == 0 {
				row[j] = 0
				continue
			}
			if w.cellsS[j] <= 0 {
				// Empty cell: joining it alone yields u_α(r).
				row[j] = perUserUtil(w.alpha, rates[j])
				continue
			}
			row[j] = w.gN[j] + w.gS[j]*invR[j]
		}
	}
}

// candRows builds rows [lo, hi) of the line-search candidate x + step·grad
// and projects each onto its simplex. Off-support coordinates of cand
// stay at the 0 they were cleared to.
//
// A single-mass row of x (mass μ on t) skips the build. Its candidate
// values are top = μ + step·g_t at t and step·g_j elsewhere (0 + y = y
// up to the sign of a zero, which no test below can see), so the
// projection's vertex test (onVertex) is taken from top and the others'
// max and min. When it holds, top is the row's strict maximum, and
// projectOnSupport would set θ = top−1 and write top−θ at t and 0
// elsewhere; the row is written so directly, touching only t and the
// one coordinate the buffer row last held mass on. No finiteness
// test is needed here: max and min carry a NaN through, a non-finite
// top, second or low fails margin < 1 or the gap test, and all-finite
// values whose sum overflows are too large for margin < 1. Any other
// row, or a failed test (which includes a row leaving t for another
// vertex), takes the full path.
func (w *Workspace) candRows(lo, hi int) {
	ps := &w.proj[lo/rowChunk]
	step := w.step
	for k := lo; k < hi; k++ {
		row, x, grad, sup := w.cand[k], w.x[k], w.grad[k], w.supports[k]
		if t := w.xv[k]; t >= 0 {
			top := x[t] + step*grad[t]
			second, low := math.Inf(-1), top
			for _, j := range sup {
				if j != t {
					v := step * grad[j]
					second, low = max(second, v), min(low, v)
				}
			}
			if onVertex(top, second, low, len(sup), true) {
				switch prev := w.cv[k]; {
				case prev == t:
				case prev >= 0:
					row[prev] = 0
				default:
					for _, j := range sup {
						row[j] = 0
					}
				}
				row[t] = top - (top - 1)
				w.cv[k] = t
				continue
			}
		}
		for _, j := range sup {
			row[j] = x[j] + step*grad[j]
		}
		projectOnSupport(ps, row, sup)
		w.cv[k] = singleMass(row, sup)
	}
}

// singleMass returns the one support coordinate of row that is not
// exactly 0, or -1 when there is no such single coordinate.
func singleMass(row []float64, sup []int) int {
	t := -1
	for _, j := range sup {
		if row[j] != 0 {
			if t >= 0 {
				return -1
			}
			t = j
		}
	}
	return t
}

// SolveProjectedGradientWith solves the Phase II relaxation by projected
// gradient ascent over the free users' assignment simplices and extracts
// an integral solution, reusing w's buffers (nil means a fresh
// Workspace). Only the returned Solution and
// its assignment are allocated once w has grown to the instance size;
// the result is bit-identical to a fresh solve.
func SolveProjectedGradientWith(w *Workspace, p Problem, opts Options) (*Solution, error) {
	if w == nil {
		w = &Workspace{}
	}
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
	w.xb, w.cb, w.gb = grow(w.xb, f*numExt), grow(w.cb, f*numExt), grow(w.gb, f*numExt)
	clear(w.xb)
	clear(w.cb)
	w.x = rowsOver(w.x, w.xb, f, numExt)
	w.cand = rowsOver(w.cand, w.cb, f, numExt)
	w.grad = rowsOver(w.grad, w.gb, f, numExt)
	w.cellsN, w.cellsS = grow(w.cellsN, numExt), grow(w.cellsS, numExt)
	w.invS2, w.gN, w.gS = grow(w.invS2, numExt), grow(w.gN, numExt), grow(w.gS, numExt)
	w.proj = grow(w.proj, (f+rowChunk-1)/rowChunk)
	w.xv, w.cv = grow(w.xv, f), grow(w.cv, f)

	// x[k][j]: fractional assignment of free user k to extender j,
	// initialized uniformly over reachable extenders; a user reaching
	// one extender starts single-mass. cand starts all zero.
	for k, sup := range w.supports {
		for _, j := range sup {
			w.x[k][j] = 1 / float64(len(sup))
		}
		w.xv[k], w.cv[k] = -1, -1
		if len(sup) == 1 {
			w.xv[k] = sup[0]
		}
	}

	prev := w.cells(w.x, w.xv)
	step := pgStep
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		// cellsN/cellsS hold the loads of the current iterate: either the
		// initial cells call or the accepted candidate's. Rows of the
		// gradient are independent given the loads, so they fan out. The
		// per-extender factors are hoisted out of the row loop and the
		// rate divisions were precomputed at attach, so the inner loops
		// are multiply-only.
		if w.alpha == 0 {
			for j := 0; j < numExt; j++ {
				if s := w.cellsS[j]; s > 0 {
					w.invS2[j] = 1 / (s * s)
				} else {
					w.invS2[j] = 0
				}
			}
			w.forRows(opts.Workers, (*Workspace).gradSumRows)
		} else {
			// ∂f/∂N_j = u_α(1/S_j) and ∂f/∂S_j = −N_j·S_j^(α−2).
			for j := 0; j < numExt; j++ {
				if s := w.cellsS[j]; s > 0 {
					w.gN[j] = perUserUtil(w.alpha, 1/s)
					w.gS[j] = -w.cellsN[j] * math.Pow(s, w.alpha-2)
				} else {
					w.gN[j], w.gS[j] = 0, 0
				}
			}
			w.forRows(opts.Workers, (*Workspace).gradAlphaRows)
		}

		// Backtracking line search on the projected step. The candidate
		// build + per-row simplex projection is row-independent and fans
		// out; the accept/backtrack decision is sequential.
		improved := false
		for attempt := 0; attempt < 20; attempt++ {
			w.step = step
			w.forRows(opts.Workers, (*Workspace).candRows)
			obj := w.cells(w.cand, w.cv)
			if obj > prev {
				w.x, w.cand = w.cand, w.x
				w.xv, w.cv = w.cv, w.xv
				// converged per the paper's criterion unless the gain
				// clears the tolerance
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

	// Theorem 3 extraction: collapse each user's mass onto one extender,
	// then polish with discrete best-response moves (each move increases
	// the objective, so this terminates).
	// Off-support mass is 0, so the argmax is on the support unless a
	// row went NaN (a term that overflows); such a user takes its first
	// reachable extender.
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
	obj, sweeps := w.polish(p, assign)

	// The relaxation is non-convex, so the gradient iterate can land in a
	// poorer basin than a greedy discrete start. Keep the better of the
	// two (multi-start local search).
	w.alt = append(w.alt[:0], p.Fixed...)
	altObj, altSweeps := w.coordinate(p, w.alt)
	sweeps += altSweeps
	if altObj > obj+1e-12 {
		copy(assign, w.alt)
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

// CellObjective is one extender's term of a separable placement
// objective: given the cell's load — user count (or fractional mass) n
// and inverse-rate sum s — it returns the cell's contribution, and the
// placement scores Σ_j term(n_j, s_j) (see Total). Larger is better.
// The separable form is what makes O(1) delta scoring possible: a
// single-user move touches two cells, so its effect on the objective is
// the two affected terms' deltas.
type CellObjective func(n, s float64) float64

// SumThroughput is Problem 2's objective term: T_WiFi_j = n_j/s_j, zero
// for an empty cell. n may be fractional (the relaxation's cell masses).
func SumThroughput(n, s float64) float64 {
	if s > 0 {
		return n / s
	}
	return 0
}

// ProportionalFair is the proportional-fairness extension's term: under
// throughput-fair sharing every user on extender j receives 1/s_j, so
// Σ_i log(throughput_i) = -Σ_j n_j·ln(s_j). Maximizing it trades a
// little aggregate throughput for a much flatter allocation.
func ProportionalFair(n, s float64) float64 {
	if n > 0 && s > 0 {
		return -n * math.Log(s)
	}
	return 0
}

// MaxMinSurrogateAlpha is the finite fairness exponent the smooth
// solvers substitute for the α→∞ max-min utility: the true max-min
// objective is non-smooth (a min over cells) and has no useful
// gradient, while the α-fair family converges to it as α grows. α=8 is
// steep enough that starving any user dominates every aggregate gain
// the solvers can express, yet keeps S^(α−2) within float64 range on
// realistic rate spreads. Exact max-min semantics (lexicographic
// Score comparisons) live in the discrete probe loops, not here.
const MaxMinSurrogateAlpha = 8.0

// surrogateAlpha maps a utility to the finite exponent the smooth
// solvers use: its own α, or MaxMinSurrogateAlpha for max-min.
func surrogateAlpha(u model.Utility) float64 {
	if u.MaxMin {
		return MaxMinSurrogateAlpha
	}
	return u.Alpha
}

// perUserUtil is u_α(x) for a finite exponent α ≥ 0 and x > 0 — the
// solver-local scalar the α-fair gradient and cell terms are built
// from (model.Utility.PerUser without the max-min and non-positive
// special cases, which cannot occur inside the relaxation).
func perUserUtil(a, x float64) float64 {
	switch a {
	case 0:
		return x
	case 1:
		return math.Log(x)
	}
	return math.Pow(x, 1-a) / (1 - a)
}

// AlphaFairCell returns the separable cell term of the α-fair
// objective for the given utility: every user on a cell with
// inverse-rate sum s receives throughput 1/s, so a cell of mass n
// contributes n·u_α(1/s) = n·s^(α−1)/(1−α). α=0 returns SumThroughput
// itself (same function value, same bit patterns — the zero utility
// keeps the solver bit-identical to the pre-utility code) and α=1
// returns ProportionalFair; max-min maps to its smooth surrogate
// exponent (MaxMinSurrogateAlpha).
func AlphaFairCell(u model.Utility) CellObjective {
	a := surrogateAlpha(u)
	switch a {
	case 0:
		return SumThroughput
	case 1:
		return ProportionalFair
	}
	return func(n, s float64) float64 {
		if n > 0 && s > 0 {
			return n * math.Pow(s, a-1) / (1 - a)
		}
		return 0
	}
}

// Total evaluates a separable objective on per-extender loads, summing
// the cell terms in ascending extender order. The fixed summation order
// keeps totals bit-identical wherever they are computed (empty cells add
// exactly 0.0, which is exact).
func Total(objective CellObjective, n, s []float64) float64 {
	var total float64
	for j := range n {
		total += objective(n[j], s[j])
	}
	return total
}

// SolveCoordinateWith places the free users greedily (each on the
// extender that most increases the objective given current loads) and
// then runs best-response sweeps until no single-user move improves it.
// The returned Solution's Objective is the given objective's
// value (not Σ T_WiFi) unless the objectives coincide.
func SolveCoordinateWith(p Problem, objective CellObjective) (*Solution, error) {
	if objective == nil {
		return nil, fmt.Errorf("nlp: nil objective")
	}
	return solveCoordinate(p, cellTerm{obj: objective})
}

func solveCoordinate(p Problem, term cellTerm) (*Solution, error) {
	var w Workspace
	if _, err := w.attach(p, term); err != nil {
		return nil, err
	}
	assign := p.Fixed.Clone()
	obj, sweeps := w.coordinate(p, assign)
	return &Solution{Assign: assign, Objective: obj, PolishSweeps: sweeps, IntegralAtConvergence: true}, nil
}

// cellTerm is the cell objective the discrete phases and cells score
// with: obj, or Problem 2's sum-throughput term inlined when obj is nil
// (the same bits SumThroughput computes, without the indirect call).
type cellTerm struct{ obj CellObjective }

func (c cellTerm) at(n, s float64) float64 {
	if c.obj != nil {
		return c.obj(n, s)
	}
	if s > 0 {
		return n / s
	}
	return 0
}

// termFor is the cell term of utility u (see AlphaFairCell).
func termFor(u model.Utility) cellTerm {
	if surrogateAlpha(u) == 0 {
		return cellTerm{}
	}
	return cellTerm{obj: AlphaFairCell(u)}
}

// coordinate places the free users of assign (which holds p.Fixed)
// greedily in user order, each by marginal objective gain, and polishes
// the result. The objective is separable per cell, so joining extender
// j changes only j's term — the gain is one term delta, O(1) per
// candidate.
func (w *Workspace) coordinate(p Problem, assign model.Assignment) (float64, int) {
	n, s := w.n, w.s
	copy(n, w.fixedN)
	copy(s, w.fixedS)
	for k, i := range w.free {
		// A user whose every gain is -Inf or NaN (a cell term that
		// overflows) joins its first reachable extender.
		invR, sup := w.invR[k], w.supports[k]
		bestJ, bestGain := sup[0], math.Inf(-1)
		for _, j := range sup {
			gain := w.term.at(n[j]+1, s[j]+invR[j]) - w.term.at(n[j], s[j])
			if gain > bestGain {
				bestJ, bestGain = j, gain
			}
		}
		assign[i] = bestJ
		n[bestJ], s[bestJ] = n[bestJ]+1, s[bestJ]+invR[bestJ]
	}
	return w.polish(p, assign)
}

// polish runs discrete best-response sweeps over the free users (single
// moves plus pairwise swaps, which escape the common local optima single
// moves cannot), mutating assign, and returns the final objective and
// the number of sweeps performed.
//
// Scoring leans on the objective's separability: contrib[j] caches
// extender j's term of the current placement, so a candidate move is
// scored as obj plus the two affected terms' deltas — O(1) per
// candidate instead of a full rescan of every cell. The per-extender
// loads (n, s) are maintained across moves, and after each applied move
// the two dirty contribs are refreshed and the objective re-summed over
// all cells in ascending order (O(numExt), exact with respect to the
// cached terms — no drift accumulates across moves).
func (w *Workspace) polish(p Problem, assign model.Assignment) (float64, int) {
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

		// Single-user moves: per user, score every reachable extender
		// against the current loads and take the best (lowest index wins
		// ties through the strict epsilon comparison). Leaving the
		// current cell contributes the same delta to every candidate, so
		// it is computed once per user.
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

		// Pairwise swaps between free users on different extenders,
		// first-improvement in row-major a < b order: an improving swap
		// is applied immediately and the scan resumes at the next pair.
		// Counts are unchanged by a swap; only the two cells' inverse-
		// rate sums move. Only the partners queueSwaps queues are
		// visited: every other b shares a's cell, sits where a cannot
		// go, or (sum-rate only) sits in a cell no swap with a can
		// improve, and was skipped or rejected by the full scan. An
		// accepted swap moves a and b, so the member lists, the two
		// cells' bounds and a's queue are rebuilt after it.
		sumRate := w.term.obj == nil
		w.listMembers()
		if sumRate {
			for c := range contrib {
				w.cellBounds(c)
			}
		}
		for a := range ext {
			if !w.queueSwaps(a, obj, sumRate) {
				continue
			}
			invA := w.invR[a]
			for b := w.nextSwap(a + 1); b >= 0; b = w.nextSwap(b + 1) {
				ja, jb := ext[a], ext[b]
				if w.rates[b][ja] <= 0 {
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
					w.listMembers()
					if sumRate {
						w.cellBounds(ja)
						w.cellBounds(jb)
					}
					w.queueSwaps(a, obj, sumRate)
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

// listMembers rebuilds the member lists from the free users' current
// extenders (a counting sort, so each list ascends).
func (w *Workspace) listMembers() {
	numExt := len(w.maxOwn)
	at := w.memberAt
	clear(at)
	for _, c := range w.ext {
		at[c+1]++
	}
	for c := 0; c < numExt; c++ {
		at[c+1] += at[c]
	}
	for k, c := range w.ext {
		w.members[at[c]] = k
		at[c]++
	}
	copy(at[1:], at[:numExt])
	at[0] = 0
}

// cellBounds recomputes column c of minInv and maxOwn[c] from cell c's
// member list.
func (w *Workspace) cellBounds(c int) {
	numExt := len(w.maxOwn)
	for j := c; j < len(w.minInv); j += numExt {
		w.minInv[j] = math.Inf(1)
	}
	hi := math.Inf(-1)
	for _, k := range w.members[w.memberAt[c]:w.memberAt[c+1]] {
		inv := w.invR[k]
		for _, j := range w.supports[k] {
			w.minInv[j*numExt+c] = min(w.minInv[j*numExt+c], inv[j])
		}
		hi = max(hi, inv[c])
	}
	w.maxOwn[c] = hi
}

// queueSwaps queues the partners b > a whose swaps with free user a
// the scan must score: the members of every cell c ≠ ja = ext[a] that
// a reaches, except, under the sum-rate term, those of a cell the test
// below closes. It reports whether it queued any.
//
// A swap with b in c scores the candidate
//
//	fl(fl(fl(fl(obj−C_ja)−C_c)+T_ja)+T_c)
//
// where C are the cached cell terms and T the terms at the swapped
// sums s'_ja = fl(fl(s_ja−1/r_a,ja)+1/r_b,ja) and s'_c =
// fl(fl(s_c−1/r_b,c)+1/r_a,c). Every rounded operation is monotone in
// each operand, and 1/r_b,ja ≥ minInv[ja][c], 1/r_b,c ≤ maxOwn[c]. So
// when the two sums built from those bounds are still ≥ s_ja and ≥ s_c,
// and both are positive, no b moves either sum down. Then T = n/s' ≤
// n/s = C for both cells (a NaN sum gives T = 0 ≤ C), and each
// candidate is NaN or at most the bound with C in place of T. If that
// bound is ≤ fl(obj+1e-12), no swap with a member of c is accepted.
// A NaN anywhere in the test fails it and keeps the cell open.
func (w *Workspace) queueSwaps(a int, obj float64, sumRate bool) bool {
	clear(w.queued)
	s, contrib, numExt := w.s, w.contrib, len(w.maxOwn)
	ja, invA := w.ext[a], w.invR[a]
	sja, cja := s[ja], contrib[ja]
	leave := sja - invA[ja]
	limit := obj + 1e-12
	minIn := w.minInv[ja*numExt : (ja+1)*numExt]
	queued := false
	for _, c := range w.supports[a] {
		mem := w.members[w.memberAt[c]:w.memberAt[c+1]]
		if c == ja || len(mem) == 0 || mem[len(mem)-1] <= a {
			continue
		}
		if sumRate && sja > 0 && s[c] > 0 &&
			leave+minIn[c] >= sja &&
			s[c]-w.maxOwn[c]+invA[c] >= s[c] &&
			obj-cja-contrib[c]+cja+contrib[c] <= limit {
			continue
		}
		for i := len(mem) - 1; i >= 0 && mem[i] > a; i-- {
			b := mem[i]
			w.queued[b>>6] |= 1 << (b & 63)
			queued = true
		}
	}
	return queued
}

// nextSwap returns the least queued partner ≥ i, or -1.
func (w *Workspace) nextSwap(i int) int {
	q := i >> 6
	if q >= len(w.queued) {
		return -1
	}
	word := w.queued[q] &^ (1<<(i&63) - 1)
	for word == 0 {
		q++
		if q == len(w.queued) {
			return -1
		}
		word = w.queued[q]
	}
	return q<<6 | bits.TrailingZeros64(word)
}

// discreteObjective computes Σ_j T_WiFi_j for an integral assignment.
func discreteObjective(p Problem, assign model.Assignment, numExt int) float64 {
	n, s := make([]float64, numExt), make([]float64, numExt)
	loadInto(n, s, p, assign)
	return Total(SumThroughput, n, s)
}

// loadInto writes the per-extender user counts and inverse-rate sums of
// assign into n and s, accumulating in ascending user order.
func loadInto(n, s []float64, p Problem, assign model.Assignment) {
	clear(n)
	clear(s)
	for i, j := range assign {
		if j == model.Unassigned {
			continue
		}
		n[j]++
		s[j] += 1 / p.Rates[i][j]
	}
}

// projScratch holds the reusable buffers of projectSimplexWith.
type projScratch struct {
	support []int
	vals    []float64
	work    []float64
}

// projectSimplex projects row onto the probability simplex restricted to
// coordinates where rates > 0 (unreachable extenders stay at 0), using
// Michelot's deterministic fixed-point filter.
func projectSimplex(row, rates []float64) {
	var ps projScratch
	projectSimplexWith(&ps, row, rates)
}

// projectSimplexWith is projectSimplex with caller-owned scratch buffers,
// for hot loops that project many rows.
func projectSimplexWith(ps *projScratch, row, rates []float64) {
	support := ps.support[:0]
	for j, r := range rates {
		if r > 0 {
			support = append(support, j)
		} else {
			row[j] = 0
		}
	}
	ps.support = support
	projectOnSupport(ps, row, support)
}

// projectOnSupport is the projection's hot inner form: the caller owns
// the (precomputed) support list and guarantees every non-support
// coordinate of row is already 0, so only the support coordinates are
// read or written.
//
// Michelot's algorithm: starting from the full support, repeatedly set
// θ = (Σ active − 1)/|active| and drop the values ≤ θ; at the fixed point
// θ is exactly the sort-based Duchi et al. threshold, found in O(n) per
// pass with no sort. The maximum always survives a pass — θ = (Σ−1)/m ≤
// max − 1/m < max — so the active set never empties and shrinks strictly
// until the fixed point. Values are scanned in ascending-coordinate order
// every pass, so θ's arithmetic is a fixed function of the input
// (bit-deterministic across runs and workers).
//
// Vertex fast path. Most rows of a converging iterate project onto a
// vertex: one value, top, beats every other by more than 1, and
// Michelot spends several passes dropping the others before it ends on
// {top} with θ = (0+top−1)/1 = fl(top−1). The fast path sets that θ
// directly when margin = (m+2)²(M+1)·2⁻⁵⁰ < 1 and top − second > 1 +
// margin in floating point, where m = |support|, M = max|v| and second
// is the runner-up. Proof that Michelot ends there, with u = 2⁻⁵³ and
// δ = top−1−second (exact): the test implies δ > margin − 6u ≥
// margin/4 ≥ m·E, where E = (m+2)(M+1)·2u bounds how far a pass's
// computed θ̂ strays from its exact θ (summation error γ_{k−1}·kM over
// k ≤ m active values, plus one rounding each for −1 and /k). Exactly,
// θ ≤ top−1−(k−1)δ/k, so top survives every pass (θ̂ ≤ top−1+E < top);
// and since the active values' excess over θ sums to 1, some other
// active value lies at least δ/k > E below θ, hence below θ̂, and is
// dropped. Passes thus shed the others until only top is left, and the
// last computes θ̂ = fl(top−1), which is below top since M < 2⁴⁷. A
// NaN or ±Inf makes the sum non-finite; they, ties and huge values fail
// the test and run Michelot. The test is onVertex, which candRows also
// takes single-mass rows through.
func projectOnSupport(ps *projScratch, row []float64, support []int) {
	if len(support) == 0 {
		return
	}
	if cap(ps.vals) < len(support) {
		ps.vals = make([]float64, len(support))
		ps.work = make([]float64, len(support))
	}
	vals := ps.vals[:len(support)]
	sum := 0.0
	top, second, low := math.Inf(-1), math.Inf(-1), math.Inf(1)
	for k, j := range support {
		v := row[j]
		vals[k] = v
		sum += v
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
		if v < low {
			low = v
		}
	}
	var theta float64
	// sum-sum == 0 holds only for a finite sum, i.e. finite values.
	if onVertex(top, second, low, len(support), sum-sum == 0) {
		theta = top - 1
	} else {
		act := ps.work[:len(support)]
		copy(act, vals)
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
	}
	for k, j := range support {
		v := vals[k] - theta
		if v < 0 {
			v = 0
		}
		row[j] = v
	}
}

// onVertex is the projection's vertex fast-path test (see
// projectOnSupport) for a row of m support values with maximum top,
// runner-up second and minimum low, all finite when finite is true:
// margin = (m+2)²(M+1)·2⁻⁵⁰ < 1 with M = max(|top|, |low|), and
// top − second > 1 + margin.
func onVertex(top, second, low float64, m int, finite bool) bool {
	fm := float64(m)
	margin := (fm + 2) * (fm + 2) * (max(math.Abs(top), math.Abs(low)) + 1) * 0x1p-50
	return finite && margin < 1 && top-second > 1+margin
}
