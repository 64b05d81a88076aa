package localsearch

import (
	"math"
	"math/bits"
	"slices"

	"github.com/plcwifi/wolt/internal/model"
)

// Per-user states of a deficitRank entry.
const (
	rankClean uint8 = iota // placed in the order under its current deficit
	rankDirty              // placed under an outdated key; queued for re-keying
	rankNew                // not placed yet (a replayed insert); queued
)

// deficitRank is the hill climb's persistent visit order: every user of
// the searcher's committed state, by descending rate deficit in the
// utility's own units, ties by ascending order key (model.Network.Key)
// — a strict total order, whatever row a user sits in. A user's deficit
// (model.Utility.Deficit of its best reachable rate vs its current
// rate) depends only on its own rate row and its own extender, so the
// order survives across searches and is repaired edit by edit instead
// of being rebuilt per pass:
//
//   - row edits, replayed when a search first needs the order
//     (Searcher.catchUp): an insert queues the new user, a remove drops
//     the user and renames the moved last row's entry, a set marks the
//     user dirty;
//   - every Commit the searcher makes marks the moved user dirty. Place
//     does not replay: it maps the placed user back through the edits
//     not yet replayed (touchAt), so a join costs O(edits) here;
//   - a wholesale change — another network or utility, a gap longer
//     than the edit log, or an evaluator re-Attach — marks every key
//     out of date.
//
// Each user's best reachable rate, a max-scan of its row, is cached
// apart from the keys and kept through every replayed edit, so a
// rebuild on the same network (an evaluator re-Attach, another utility)
// re-keys from the cache instead of scanning every row again.
//
// Dirty users are re-keyed and re-placed only by flush, at the start of
// a pass, so a pass walks a stable snapshot: exactly the order a sort of
// the committed state at pass start gives.
//
// The order is a sorted prefix (head) that passes have read, followed
// by a binary heap holding everyone else, every heap entry sorting
// after the head's last. Reading past the head pops the heap, so a
// rebuild costs one O(users) heapify plus one O(log users) pop per user
// a pass actually visits. A flush costs O(log users) per dirty user in
// the heap and one head memmove per dirty user in the head; when the
// queue is long enough for that to exceed a rebuild, flush rebuilds
// instead.
type deficitRank struct {
	net   *model.Network
	gen   uint64
	util  model.Utility
	evals int  // the evaluator's Attach count the keys were taken under
	stale bool // every key is out of date: the next flush rebuilds

	best  []float64 // each user's best reachable rate, current with gen
	key   []float64 // each user's deficit as placed in the order
	id    []int     // each user's order key, taken with its deficit
	state []uint8   // rankClean, rankDirty or rankNew
	pos   []int     // each heap entry's index in heap
	queue []int     // the dirty and new users, in marking order

	head []int // sorted prefix
	heap []int // binary heap under less; all of it sorts after head
}

// sync makes the order track network n under utility util, for an
// evaluator that has made evals Attaches. It replays the row edits
// logged since the last sync, or rescans every row's best rate and
// marks every key out of date when it cannot; another utility or
// Attach count marks the keys out of date too. Call it after the
// evaluator's Sync, before the order is next read or touched.
func (r *deficitRank) sync(n *model.Network, util model.Utility, evals int) {
	if r.net == n && n.Replayable(r.gen) {
		r.replay()
	} else {
		r.net, r.gen, r.stale = n, n.Generation(), true
		r.best = slices.Grow(r.best[:0], n.NumUsers())[:n.NumUsers()]
		for u, row := range n.WiFiRates {
			r.best[u] = bestRate(row)
		}
	}
	if r.util != util || r.evals != evals {
		r.util, r.evals, r.stale = util, evals, true
	}
}

// replay applies the network's row edits since r.gen: always to the
// best-rate cache, and to the order unless its keys are out of date.
func (r *deficitRank) replay() {
	n := r.net
	for g := r.gen + 1; g <= n.Generation(); g++ {
		e := n.Edit(g)
		switch e.Kind {
		case model.EditInsert:
			r.best = append(r.best, bestRate(e.Rates))
			if !r.stale {
				r.key = append(r.key, 0)
				r.id = append(r.id, 0)
				r.state = append(r.state, rankNew)
				r.pos = append(r.pos, 0)
				r.queue = append(r.queue, e.Row)
			}
		case model.EditRemove:
			last := len(r.best) - 1
			if !r.stale {
				if r.state[e.Row] != rankClean {
					r.queue = slices.DeleteFunc(r.queue, func(u int) bool { return u == e.Row })
				}
				if r.state[e.Row] != rankNew {
					r.detach(e.Row)
				}
				if last != e.Row {
					r.rename(last, e.Row)
				}
				r.key, r.id, r.state, r.pos = r.key[:last], r.id[:last], r.state[:last], r.pos[:last]
			}
			r.best[e.Row] = r.best[last]
			r.best = r.best[:last]
		case model.EditSet:
			r.best[e.Row] = bestRate(e.Rates)
			r.touch(e.Row)
		}
	}
	r.gen = n.Generation()
}

// rename moves user u's entries to the free row v.
func (r *deficitRank) rename(u, v int) {
	if r.state[u] != rankClean {
		r.queue[slices.Index(r.queue, u)] = v
	}
	if r.state[u] != rankNew {
		if r.inHead(u) {
			r.head[r.search(u)] = v
		} else {
			r.heap[r.pos[u]] = v
		}
	}
	r.key[v], r.id[v], r.state[v], r.pos[v] = r.key[u], r.id[u], r.state[u], r.pos[u]
}

// touchAt marks user i of network n's current generation dirty while
// the order may still trail n by logged edits: i is mapped back through
// them to its row at r.gen, and a user inserted since needs no mark
// (the replay queues it as new). When the order cannot replay n, the
// next sync rebuilds it and no mark is needed either.
func (r *deficitRank) touchAt(n *model.Network, i int) {
	if r.stale || r.net != n || !n.Replayable(r.gen) {
		return
	}
	users := n.NumUsers()
	for g := n.Generation(); g > r.gen; g-- {
		switch e := n.Edit(g); e.Kind {
		case model.EditInsert:
			if i == e.Row {
				return
			}
			users--
		case model.EditRemove:
			if i == e.Row {
				i = users // the row the edit moved into e.Row
			}
			users++
		}
	}
	r.touch(i)
}

// touch marks user u's key out of date: its row or its extender changed.
// The order must be current with the network.
func (r *deficitRank) touch(u int) {
	if !r.stale && r.state[u] == rankClean {
		r.state[u] = rankDirty
		r.queue = append(r.queue, u)
	}
}

// flush re-keys every queued user from the evaluator's committed state
// and re-places it, or rebuilds the whole order when that is cheaper:
// each re-placed user costs a heap fix or a head memmove, a rebuild one
// heapify.
func (r *deficitRank) flush(d *model.DeltaEval) {
	users := len(r.best)
	switch {
	case r.stale:
		r.key = slices.Grow(r.key[:0], users)[:users]
		r.id = slices.Grow(r.id[:0], users)[:users]
		r.state = slices.Grow(r.state[:0], users)[:users]
		r.pos = slices.Grow(r.pos[:0], users)[:users]
		for u := range r.key {
			r.rekey(d, u)
		}
		r.stale = false
	case len(r.queue)*(bits.Len(uint(users))+len(r.head)/8) > users:
		for _, u := range r.queue {
			r.rekey(d, u)
		}
	default:
		for _, u := range r.queue {
			k := r.deficit(d, u)
			if r.state[u] == rankDirty {
				if k == r.key[u] {
					r.state[u] = rankClean
					continue // a rolled-back move: same key, same place
				}
				r.detach(u)
			}
			r.key[u], r.id[u] = k, r.net.Key(u)
			r.state[u] = rankClean
			r.place(u)
		}
		r.queue = r.queue[:0]
		return
	}
	r.queue = r.queue[:0]
	r.rebuild()
}

// rekey takes user u's deficit and order key afresh and marks it clean.
func (r *deficitRank) rekey(d *model.DeltaEval, u int) {
	r.key[u], r.id[u] = r.deficit(d, u), r.net.Key(u)
	r.state[u] = rankClean
}

// deficit is user u's sort key in the committed state of d: the
// utility's deficit of the best reachable rate vs the current rate.
// The zero sum-rate utility gives the raw rate difference;
// fairness-hungry utilities send users at or near zero throughput to
// the front. An unassigned user's current rate is 0 (+∞ deficit under
// finite α > 0), so any user the placement pass could not afford sorts
// first; a user with no reachable extender sorts last (−∞). The best
// rate is the cached max-scan of the row, equal to the rate of
// Candidates.For(u)[0] by construction, so keying fills no
// neighbourhood.
func (r *deficitRank) deficit(d *model.DeltaEval, u int) float64 {
	best := r.best[u]
	if best <= 0 {
		return math.Inf(-1)
	}
	cur := 0.0
	if from := d.Assigned(u); from != model.Unassigned {
		cur = r.net.WiFiRates[u][from]
	}
	return r.util.Deficit(best, cur)
}

// bestRate returns the row's largest positive rate, or 0 when no
// extender is reachable.
func bestRate(row []float64) float64 {
	best := 0.0
	for _, r := range row {
		if r > best {
			best = r
		}
	}
	return best
}

// at returns the user in position p of the order, popping the heap into
// the head as far as p; -1 past the last user.
func (r *deficitRank) at(p int) int {
	for len(r.head) <= p {
		if len(r.heap) == 0 {
			return -1
		}
		r.head = append(r.head, r.pop())
	}
	return r.head[p]
}

// less is the strict total order: deficit descending, key ascending.
func (r *deficitRank) less(a, b int) bool {
	if r.key[a] != r.key[b] {
		return r.key[a] > r.key[b]
	}
	return r.id[a] < r.id[b]
}

// rebuild empties the head and heapifies every user in O(users).
func (r *deficitRank) rebuild() {
	r.head = r.head[:0]
	r.heap = slices.Grow(r.heap[:0], len(r.key))[:len(r.key)]
	for u := range r.heap {
		r.heap[u] = u
		r.pos[u] = u
	}
	for k := len(r.heap)/2 - 1; k >= 0; k-- {
		r.down(k)
	}
}

// place inserts user u, keyed but unplaced, at its position.
func (r *deficitRank) place(u int) {
	if last := len(r.head) - 1; last >= 0 && r.less(u, r.head[last]) {
		r.head = slices.Insert(r.head, r.search(u), u)
		return
	}
	r.pos[u] = len(r.heap)
	r.heap = append(r.heap, u)
	r.up(len(r.heap) - 1)
}

// inHead reports whether placed user u is in the head.
func (r *deficitRank) inHead(u int) bool {
	last := len(r.head) - 1
	return last >= 0 && !r.less(r.head[last], u)
}

// detach removes placed user u from the order under its current key.
func (r *deficitRank) detach(u int) {
	if r.inHead(u) {
		p := r.search(u)
		r.head = slices.Delete(r.head, p, p+1)
		return
	}
	k, last := r.pos[u], len(r.heap)-1
	r.swap(k, last)
	r.heap = r.heap[:last]
	if k < last && !r.down(k) {
		r.up(k)
	}
}

// search returns the first head position whose user does not sort
// before u.
func (r *deficitRank) search(u int) int {
	lo, hi := 0, len(r.head)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.less(r.head[m], u) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pop removes and returns the heap's first user.
func (r *deficitRank) pop() int {
	last := len(r.heap) - 1
	r.swap(0, last)
	top := r.heap[last]
	r.heap = r.heap[:last]
	r.down(0)
	return top
}

func (r *deficitRank) swap(a, b int) {
	r.heap[a], r.heap[b] = r.heap[b], r.heap[a]
	r.pos[r.heap[a]], r.pos[r.heap[b]] = a, b
}

func (r *deficitRank) up(k int) {
	for k > 0 {
		p := (k - 1) / 2
		if !r.less(r.heap[k], r.heap[p]) {
			return
		}
		r.swap(k, p)
		k = p
	}
}

// down sifts heap entry k toward the leaves and reports whether it
// moved.
func (r *deficitRank) down(k int) bool {
	k0, n := k, len(r.heap)
	for {
		c := 2*k + 1
		if c >= n {
			break
		}
		if rc := c + 1; rc < n && r.less(r.heap[rc], r.heap[c]) {
			c = rc
		}
		if !r.less(r.heap[c], r.heap[k]) {
			break
		}
		r.swap(k, c)
		k = c
	}
	return k > k0
}
