// Package hungarian solves the linear assignment problem in O(n²·m) time
// using the shortest-augmenting-path formulation of the Hungarian
// algorithm (Jonker-Volgenant style with dual potentials).
//
// WOLT's Phase I (Theorem 2) reduces the relaxed user-association problem
// to exactly this problem: extenders are tasks, users are agents, and the
// utility of pairing user i with extender j is min(c_j/|A|, r_ij).
package hungarian

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned when the cost matrix has no rows or no columns.
var ErrEmpty = errors.New("hungarian: empty cost matrix")

// Unmatched marks a row or column with no partner in a rectangular
// solution.
const Unmatched = -1

// Workspace holds the solver's internal state — dual potentials, matching
// and path arrays, and the negation/transpose buffers — so repeated solves
// reuse one set of allocations. The zero value is ready to use; buffers
// grow to the largest instance seen and are retained. A Workspace is not
// safe for concurrent use; give each worker goroutine its own.
type Workspace struct {
	u, v, minv []float64 // dual potentials and row minima (1-indexed)
	p, way     []int     // column matching and augmenting-path trail
	used       []bool
	neg        []float64 // backing store for the negated matrix (Maximize)
	negRows    [][]float64
	tr         []float64 // backing store for the transposed matrix (rows > cols)
	trRows     [][]float64

	augmentations int
}

// Augmentations reports how many shortest-augmenting-path steps (column
// visits across all rows) the most recent Minimize/Maximize on this
// workspace performed — the solver's dominant work unit, useful as a
// scale-free cost metric for per-solve stats.
func (w *Workspace) Augmentations() int { return w.augmentations }

// Minimize finds a minimum-cost matching of rows to columns. Every row of
// the smaller dimension is matched to a distinct column (or row) of the
// larger one; entries of the returned slice are column indices per row,
// with Unmatched for rows left out when rows > columns. Only the
// returned rowToCol slice is freshly allocated (the caller owns it); all
// solver state lives in the workspace.
func (w *Workspace) Minimize(cost [][]float64) (rowToCol []int, total float64, err error) {
	n, m, err := dims(cost)
	if err != nil {
		return nil, 0, err
	}
	if n > m {
		// Transpose so the solver's "assign every row" invariant matches
		// the smaller side; invert the mapping afterwards.
		t := w.transposed(cost, n, m)
		colToRow, total := w.solve(t, m, n)
		rowToCol = make([]int, n)
		for i := range rowToCol {
			rowToCol[i] = Unmatched
		}
		for j, i := range colToRow {
			if i != Unmatched {
				rowToCol[i] = j
			}
		}
		return rowToCol, total, nil
	}
	rowToCol, total = w.solve(cost, n, m)
	return rowToCol, total, nil
}

// Maximize solves the maximum-utility matching reusing the workspace's
// buffers (the utility matrix is negated into an internal buffer).
func (w *Workspace) Maximize(utility [][]float64) (rowToCol []int, total float64, err error) {
	n, m, err := dims(utility)
	if err != nil {
		return nil, 0, err
	}
	neg := growMatrix(&w.negRows, &w.neg, n, m)
	for i, row := range utility {
		dst := neg[i]
		for j, x := range row {
			dst[j] = -x
		}
	}
	rowToCol, negTotal, err := w.Minimize(neg)
	return rowToCol, -negTotal, err
}

// solve runs shortest augmenting path with potentials on an n×m matrix
// with n <= m; 1-indexed internals. Inputs must already be validated.
func (w *Workspace) solve(cost [][]float64, n, m int) (rowToCol []int, total float64) {
	w.augmentations = 0
	u := growFloats(&w.u, n+1)
	v := growFloats(&w.v, m+1)
	minv := growFloats(&w.minv, m+1)
	p := growInts(&w.p, m+1) // p[j] = row (1-indexed) matched to column j; 0 = free
	way := growInts(&w.way, m+1)
	used := growBools(&w.used, m+1)
	for i := range u {
		u[i] = 0
	}
	for j := 0; j <= m; j++ {
		v[j], p[j], way[j] = 0, 0, 0
	}

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= m; j++ {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			w.augmentations++
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowToCol = make([]int, n)
	for i := range rowToCol {
		rowToCol[i] = Unmatched
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	for i, j := range rowToCol {
		if j != Unmatched {
			total += cost[i][j]
		}
	}
	return rowToCol, total
}

// transposed writes cost's m×n transpose into the workspace's buffer.
func (w *Workspace) transposed(cost [][]float64, n, m int) [][]float64 {
	t := growMatrix(&w.trRows, &w.tr, m, n)
	for j := 0; j < m; j++ {
		row := t[j]
		for i := 0; i < n; i++ {
			row[i] = cost[i][j]
		}
	}
	return t
}

func growFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

func growInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}

func growBools(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	}
	*s = (*s)[:n]
	return *s
}

// growMatrix shapes a reusable rows×cols matrix over a single backing
// slice, growing both as needed.
func growMatrix(rows *[][]float64, buf *[]float64, r, c int) [][]float64 {
	if cap(*buf) < r*c {
		*buf = make([]float64, r*c)
	}
	*buf = (*buf)[:r*c]
	if cap(*rows) < r {
		*rows = make([][]float64, r)
	}
	*rows = (*rows)[:r]
	for i := 0; i < r; i++ {
		(*rows)[i] = (*buf)[i*c : (i+1)*c]
	}
	return *rows
}

func dims(cost [][]float64) (rows, cols int, err error) {
	rows = len(cost)
	if rows == 0 {
		return 0, 0, ErrEmpty
	}
	cols = len(cost[0])
	if cols == 0 {
		return 0, 0, ErrEmpty
	}
	for i, row := range cost {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("hungarian: row %d has %d entries, want %d", i, len(row), cols)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return 0, 0, fmt.Errorf("hungarian: non-finite cost at (%d,%d)", i, j)
			}
		}
	}
	return rows, cols, nil
}
