package control

import (
	"math/rand"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

// TestRowIndexMatchesMap drives a rowIndex through the engine's edits —
// appends, and removes that move the last row into the freed one — over
// 600 IDs, up to half the table full, and requires it to find every present
// ID's row and no absent ID, as a map kept alongside does.
func TestRowIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var (
		n   model.Network
		x   rowIndex
		ref = map[int]int{}
	)
	for step := 0; step < 20000; step++ {
		id := rng.Intn(600) * 1024
		if row, ok := ref[id]; ok {
			last := n.NumUsers() - 1
			x.remove(&n, row, last)
			delete(ref, id)
			if row != last {
				ref[n.Key(last)] = row
			}
			n.RemoveRow(row)
		} else {
			n.AppendRow(id, nil)
			ref[id] = n.NumUsers() - 1
			x.add(&n, n.NumUsers()-1)
		}
		if step%97 == 0 {
			for probe := 0; probe < 600; probe++ {
				want, ok := ref[probe*1024]
				if !ok {
					want = -1
				}
				if _, got := x.find(&n, probe*1024); got != want {
					t.Fatalf("step %d: ID %d at row %d, want %d", step, probe*1024, got, want)
				}
			}
		}
	}
}
