package model

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/plcwifi/wolt/internal/seed"
)

// syncOptions is the option dimension of the Sync differential: sum-rate
// under every sharing mode, plus α=1 and max-min with redistribution.
var syncOptions = []Options{
	{},
	{Redistribute: true},
	{Redistribute: true, Utility: AlphaFair(1)},
	{Redistribute: true, Utility: MaxMinFairness()},
}

// syncRow draws a rate row for numExt extenders with some unreachable
// links.
func syncRow(rng *rand.Rand, numExt int) []float64 {
	row := make([]float64, numExt)
	for j := range row {
		if rng.Float64() >= 0.25 {
			row[j] = 1 + rng.Float64()*60
		}
	}
	return row
}

// syncEdit applies one random row edit to the network and mirrors it in
// the assignment, as the network's owner does: appends with random keys
// enter unassigned, removes move the last row into the freed one, and
// sets draw a fresh row. The first append or remove keys an unkeyed
// network. Some sets zero the user's own extender, and a few rows have
// the wrong width, so the replay's refusals are hit.
func syncEdit(rng *rand.Rand, n *Network, a Assignment) Assignment {
	numExt := n.NumExtenders()
	users := n.NumUsers()
	switch k := rng.Intn(10); {
	case k < 4 || users == 0:
		row := syncRow(rng, numExt)
		if rng.Intn(40) == 0 {
			row = row[:numExt-1]
		}
		n.AppendRow(rng.Int(), row)
		return append(a, Unassigned)
	case k < 7:
		i := rng.Intn(users)
		n.RemoveRow(i)
		a[i] = a[users-1]
		return a[:users-1]
	default:
		i := rng.Intn(users)
		row := syncRow(rng, numExt)
		switch {
		case rng.Intn(40) == 0:
			row = append(row, 1)
		case a[i] != Unassigned && rng.Intn(5) == 0:
			row[a[i]] = 0
		}
		n.SetRow(i, row)
		return a
	}
}

// repairInstance makes a rejected (network, assignment) pair valid
// again with the fewest edits: wrong-width rows are redrawn, and users
// on an unreachable extender are unassigned, an edit it reports.
func repairInstance(rng *rand.Rand, n *Network, a Assignment) {
	for i, row := range n.WiFiRates {
		if len(row) != n.NumExtenders() {
			n.SetRow(i, syncRow(rng, n.NumExtenders()))
		}
		if j := a[i]; j != Unassigned && n.WiFiRates[i][j] <= 0 {
			a[i] = Unassigned
			n.AssignmentEdited()
		}
	}
}

// checkSyncAgainstAttach drives one evaluator through random batches of
// row edits (some longer than the edit log, occasionally an
// Invalidate), interleaved with probes and commits, and requires after
// every Sync that it agrees exactly with a fresh Attach of the same
// pair: the same error or none, and == on every committed quantity,
// every member list and cell sum, and a set of random probes. The
// network starts keyed, or unkeyed, as a literal that its first append
// or remove keys (syncEdit).
func checkSyncAgainstAttach(t *testing.T, base int64, numExt, numUsers, steps int, opts Options, keyed bool) (syncs, replays int) {
	t.Helper()
	n, a := deltaInstance(base, numExt, numUsers)
	if keyed {
		n.keys = make([]int, n.NumUsers())
		for i := range n.keys {
			n.keys[i] = i
		}
	}
	rng := seed.Rand(base, seed.DeltaFuzz, 3)
	var d DeltaEval
	if err := d.Attach(n, a, opts); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		// The owner of a network not yet keyed may drop a user without
		// reporting it (AssignmentEdited); the Sync after the append or
		// remove that keys the network must still see it.
		if n.keys == nil && len(a) > 0 && rng.Intn(2) == 0 {
			a[rng.Intn(len(a))] = Unassigned
		}
		batch := 1 + rng.Intn(4)
		switch rng.Intn(12) {
		case 0:
			batch = editLogSize + 1 + rng.Intn(8)
		case 1:
			n.Invalidate()
		}
		for b := 0; b < batch; b++ {
			a = syncEdit(rng, n, a)
		}

		var ref DeltaEval
		refErr := ref.Attach(n, a, opts)
		evals := d.Evals
		err := d.Sync(n, a, opts)
		syncs++
		if d.Evals == evals {
			replays++
		}
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("step %d: Sync error %v, Attach error %v", s, err, refErr)
		}
		if err != nil {
			repairInstance(rng, n, a)
			if err := d.Sync(n, a, opts); err != nil {
				t.Fatalf("step %d: Sync after repair: %v", s, err)
			}
			if err := ref.Attach(n, a, opts); err != nil {
				t.Fatal(err)
			}
		}
		compareEvaluators(t, s, &d, &ref, n, a, rng)

		// Commits advance both evaluators' state between edit batches.
		for c := rng.Intn(3); c > 0 && len(a) > 0; c-- {
			i := rng.Intn(len(a))
			to := rng.Intn(numExt)
			if n.WiFiRates[i][to] <= 0 {
				to = Unassigned
			}
			d.Commit(i, a[i], to)
			ref.Commit(i, a[i], to)
			a[i] = to
		}
		compareEvaluators(t, s, &d, &ref, n, a, rng)
	}
	return syncs, replays
}

// compareEvaluators requires == between a synced and a freshly attached
// evaluator on every committed quantity and on random probes.
func compareEvaluators(t *testing.T, step int, d, ref *DeltaEval, n *Network, a Assignment, rng *rand.Rand) {
	t.Helper()
	if d.Aggregate() != ref.Aggregate() || d.Utility() != ref.Utility() {
		t.Fatalf("step %d: aggregate/utility %v/%v, attach %v/%v",
			step, d.Aggregate(), d.Utility(), ref.Aggregate(), ref.Utility())
	}
	if !slices.Equal(d.assign, a) || !slices.Equal(d.active, ref.active) {
		t.Fatalf("step %d: assignment or active set diverged", step)
	}
	for i := range a {
		if d.PerUser(i) != ref.PerUser(i) {
			t.Fatalf("step %d: user %d throughput %v, attach %v", step, i, d.PerUser(i), ref.PerUser(i))
		}
	}
	for j := 0; j < n.NumExtenders(); j++ {
		if !slices.Equal(d.Members(j), ref.Members(j)) || !slices.Equal(d.inv[j], ref.inv[j]) {
			t.Fatalf("step %d: cell %d members %v, attach %v", step, j, d.Members(j), ref.Members(j))
		}
		if d.invSum[j] != ref.invSum[j] || d.demand[j] != ref.demand[j] || d.count[j] != ref.count[j] {
			t.Fatalf("step %d: cell %d sums diverged", step, j)
		}
	}
	for p := 0; p < 4 && len(a) > 0; p++ {
		i := rng.Intn(len(a))
		to := rng.Intn(n.NumExtenders())
		if n.WiFiRates[i][to] <= 0 {
			to = Unassigned
		}
		agg, own := d.ProbeMoveUser(i, a[i], to)
		refAgg, refOwn := ref.ProbeMoveUser(i, a[i], to)
		if agg != refAgg || own != refOwn || d.ProbeMoveScore(i, a[i], to) != ref.ProbeMoveScore(i, a[i], to) {
			t.Fatalf("step %d: probe (%d: %d→%d) diverged", step, i, a[i], to)
		}
	}
}

// FuzzDeltaSync is the differential harness of the row-edit replay:
// whatever mix of appends, removes and sets (refused ones included) the
// network logs, keyed from the start or keyed by its first append or
// remove, Sync must leave the evaluator exactly where a fresh Attach
// would, under every sharing mode and utility family.
func FuzzDeltaSync(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint8(0))
	f.Add(int64(2), uint8(1), uint8(4), uint8(1))
	f.Add(int64(3), uint8(5), uint8(20), uint8(2))
	f.Add(int64(4), uint8(2), uint8(15), uint8(3))
	f.Add(int64(5), uint8(4), uint8(18), uint8(4))
	f.Add(int64(6), uint8(3), uint8(12), uint8(5))
	f.Add(int64(7), uint8(5), uint8(20), uint8(6))
	f.Add(int64(8), uint8(2), uint8(16), uint8(7))
	f.Fuzz(func(t *testing.T, base int64, ext, users, optSel uint8) {
		numExt := int(ext%6) + 2
		numUsers := int(users % 24)
		opts := syncOptions[int(optSel)%len(syncOptions)]
		keyed := int(optSel)/len(syncOptions)%2 == 1
		checkSyncAgainstAttach(t, base, numExt, numUsers, 60, opts, keyed)
	})
}

// TestDeltaSyncReplays pins that the replay is the common path, not a
// rarely taken branch hidden behind Attach fallbacks.
func TestDeltaSyncReplays(t *testing.T) {
	syncs, replays := 0, 0
	for base := int64(0); base < 10; base++ {
		for _, opts := range syncOptions {
			for _, keyed := range []bool{false, true} {
				s, r := checkSyncAgainstAttach(t, base, 4, 16, 40, opts, keyed)
				syncs += s
				replays += r
			}
		}
	}
	if replays*2 < syncs {
		t.Fatalf("%d of %d syncs replayed, want most", replays, syncs)
	}
}
