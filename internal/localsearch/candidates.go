package localsearch

import (
	"slices"

	"github.com/plcwifi/wolt/internal/model"
)

// Candidates is the neighborhood cache behind the search loops: for
// every user, the top-M reachable extenders ordered by WiFi PHY rate
// (descending, ties broken by ascending extender index). Restricting
// each user's move set to its M best links turns one improvement pass
// from O(users·extenders) probes into O(users·M) — at enterprise scale
// (2000×32) that is the difference between 64k and 16k probes per pass,
// and the excluded links are exactly the ones the throughput-fair
// objective would never pick anyway (a user joining a cell at a rate
// far below its best link drags the whole cell's harmonic mean down).
//
// The cache is keyed on the network's identity and mutation counter
// (Network.Generation), and filled lazily: For fills a user's
// fixed-stride slot the first time it is asked for in the current
// epoch. Ensure catches up with logged row edits the way
// model.DeltaEval.Sync does, in O(M) each — an insert appends a stale
// slot, a remove moves the last slot into the freed one, and a set
// row's slot goes stale — and starts a new epoch, which marks every
// slot stale, only for a wholesale change: another network or M, an
// Invalidate, or a gap longer than the edit log. A warm repair that
// visits a few dozen users therefore pays for a few dozen rows, not for
// every user the network holds.
type Candidates struct {
	net *model.Network
	gen uint64
	m   int

	// epoch numbers the Ensure calls that changed the key; stamp[i] ==
	// epoch marks user i's slot as filled for the current key.
	epoch uint64
	stamp []uint64

	// flat holds user i's candidates at flat[i*m : i*m+cnt[i]]. One
	// backing array keeps fills allocation-free once warm.
	flat []int
	cnt  []int

	// selection scratch: the best-so-far rates of the user being
	// filled, insertion-sorted by (rate desc, index asc) alongside the
	// slot itself.
	selRate []float64
}

// Ensure makes the cache current for network n with neighborhoods of
// size m (m <= 0 or m >= NumExtenders means "all reachable extenders",
// still rate-ordered). Logged row edits since the last call are
// replayed slot by slot; any other change of the network identity, its
// generation, or m starts a new epoch, which marks every user's slot
// stale in O(1) apart from growing buffers.
func (c *Candidates) Ensure(n *model.Network, m int) {
	if m <= 0 || m > n.NumExtenders() {
		m = n.NumExtenders()
	}
	if c.net == n && c.m == m && n.Replayable(c.gen) {
		c.replay()
		return
	}
	// Grown with append's headroom, so a population that gains one user
	// per call does not reallocate on every call. Reused stamps all
	// predate the epoch bumped below, so no stale slot survives.
	users := n.NumUsers()
	c.stamp = slices.Grow(c.stamp[:0], users)[:users]
	c.cnt = slices.Grow(c.cnt[:0], users)[:users]
	c.flat = slices.Grow(c.flat[:0], users*m)[:users*m]
	c.selRate = slices.Grow(c.selRate[:0], m)
	c.epoch++
	c.net, c.gen, c.m = n, n.Generation(), m
}

// replay applies the network's row edits since c.gen. A stamp of 0
// predates every epoch, so it marks a slot stale.
func (c *Candidates) replay() {
	n, m := c.net, c.m
	for g := c.gen + 1; g <= n.Generation(); g++ {
		e := n.Edit(g)
		switch e.Kind {
		case model.EditInsert:
			c.stamp = append(c.stamp, 0)
			c.cnt = append(c.cnt, 0)
			c.flat = slices.Grow(c.flat, m)[:len(c.flat)+m]
		case model.EditRemove:
			last := len(c.stamp) - 1
			c.stamp[e.Row], c.cnt[e.Row] = c.stamp[last], c.cnt[last]
			copy(c.flat[e.Row*m:], c.flat[last*m:])
			c.stamp, c.cnt, c.flat = c.stamp[:last], c.cnt[:last], c.flat[:last*m]
		case model.EditSet:
			c.stamp[e.Row] = 0
		}
	}
	c.gen = n.Generation()
}

// For returns user i's candidate extenders, best rate first, filling
// the user's slot on its first use since the last Ensure that changed
// the key. The slice is owned by the cache and must not be mutated; it
// is valid until that next Ensure.
func (c *Candidates) For(i int) []int {
	if c.stamp[i] != c.epoch {
		c.fill(i)
	}
	base := i * c.m
	return c.flat[base : base+c.cnt[i]]
}

// M returns the neighborhood size the cache was last ensured with.
func (c *Candidates) M() int { return c.m }

// fill selects user i's top-m reachable extenders into its slot.
func (c *Candidates) fill(i int) {
	m := c.m
	sel, rate := c.flat[i*m:i*m:i*m+m], c.selRate[:0]
	for j, r := range c.net.WiFiRates[i] {
		if r <= 0 {
			continue
		}
		// Insertion position: after every strictly better rate and
		// after equal rates (which have smaller indices, since j
		// ascends).
		k := len(sel)
		for k > 0 && rate[k-1] < r {
			k--
		}
		if k == m {
			continue
		}
		if len(sel) < m {
			sel = append(sel, 0)
			rate = append(rate, 0)
		}
		copy(sel[k+1:], sel[k:])
		copy(rate[k+1:], rate[k:])
		sel[k], rate[k] = j, r
	}
	c.cnt[i] = len(sel)
	c.stamp[i] = c.epoch
}
