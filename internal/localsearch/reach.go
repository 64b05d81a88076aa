package localsearch

import (
	"slices"

	"github.com/plcwifi/wolt/internal/model"
)

// reachCount keeps each user's number of reachable extenders, and their
// sum, current with a network. Like the visit order's best-rate cache it
// replays logged row edits (an insert or a set counts its row, a remove
// drops the user's count and moves the last one into its place) and
// rescans every row only for a wholesale change: another network, an
// Invalidate or a gap longer than the edit log. The sum prices a
// dominated hill-climb pass without visiting a user
// (Searcher.chargeDominated), so it is synced by every search.
type reachCount struct {
	net *model.Network
	gen uint64
	n   []int32 // each user's reachable extenders
	sum int     // Σ n
}

// sync makes the counts current with network n.
func (c *reachCount) sync(n *model.Network) {
	if c.net == n && n.Replayable(c.gen) {
		c.replay()
	} else {
		c.net = n
		c.n = slices.Grow(c.n[:0], n.NumUsers())[:n.NumUsers()]
		c.sum = 0
		for u, row := range n.WiFiRates {
			c.n[u] = countReachable(row)
			c.sum += int(c.n[u])
		}
	}
	c.gen = n.Generation()
}

// replay applies the network's row edits since c.gen.
func (c *reachCount) replay() {
	n := c.net
	for g := c.gen + 1; g <= n.Generation(); g++ {
		e := n.Edit(g)
		switch e.Kind {
		case model.EditInsert:
			k := countReachable(e.Rates)
			c.n = append(c.n, k)
			c.sum += int(k)
		case model.EditRemove:
			last := len(c.n) - 1
			c.sum -= int(c.n[e.Row])
			c.n[e.Row] = c.n[last]
			c.n = c.n[:last]
		case model.EditSet:
			k := countReachable(e.Rates)
			c.sum += int(k - c.n[e.Row])
			c.n[e.Row] = k
		}
	}
}

// countReachable counts the row's positive rates.
func countReachable(row []float64) int32 {
	k := int32(0)
	for _, r := range row {
		if r > 0 {
			k++
		}
	}
	return k
}
