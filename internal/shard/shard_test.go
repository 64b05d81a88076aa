package shard

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/strategy"
)

// testCaps builds a uniform-capacity deployment of n extenders.
func testCaps(n int) []float64 {
	caps := make([]float64, n)
	for j := range caps {
		caps[j] = 50
	}
	return caps
}

// testRates synthesizes user i's scan report: positive PHY rates to
// every extender, derived from the shared seed scheme so tests are
// reproducible byte for byte.
func testRates(base int64, i, numExt int) []float64 {
	rng := seed.Rand(base, seed.ShardTrial, int64(i))
	rates := make([]float64, numExt)
	for j := range rates {
		rates[j] = 10 + 90*rng.Float64()
	}
	return rates
}

func TestRingDeterministicAndComplete(t *testing.T) {
	const members, numExt = 4, 64
	a := OwnerMapFor(42, members, 0, numExt)
	if !reflect.DeepEqual(a, OwnerMapFor(42, members, 0, numExt)) {
		t.Fatal("same seed, same members: owner maps differ")
	}
	if !reflect.DeepEqual(a, OwnerMapFor(42, members, DefaultVirtualNodes, numExt)) {
		t.Error("virtualNodes 0 does not select DefaultVirtualNodes")
	}
	owns := make([]int, members)
	for j, m := range a {
		if m < 0 || m >= members {
			t.Fatalf("extender %d owned by out-of-range member %d", j, m)
		}
		owns[m]++
	}
	for m, n := range owns {
		if n == 0 {
			t.Errorf("member %d owns no extender", m)
		}
	}
	// A different seed permutes ownership (overwhelmingly likely across
	// 64 extenders).
	if reflect.DeepEqual(a, OwnerMapFor(43, members, 0, numExt)) {
		t.Error("different seeds produced identical owner maps")
	}
}

// TestOwnerMapForGolden pins the owner maps themselves: vnode
// positions, extender keys and the tie-break order fix every
// extender's owner, and a process that computes a different map routes
// users to the wrong member.
func TestOwnerMapForGolden(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	for _, base := range []int64{7, 42, 2026} {
		for _, shards := range []int{1, 2, 3, 4, 5, 8, 32, 256} {
			for _, numExt := range []int{64, 4 * shards} {
				for _, m := range OwnerMapFor(base, shards, 0, numExt) {
					binary.LittleEndian.PutUint64(b[:], uint64(int64(m)))
					h.Write(b[:])
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0xb78688d694e62ac1); got != want {
		t.Errorf("owner map digest = %#x, want %#x", got, want)
	}
}

// TestRingMinimalMovement is consistent hashing's defining property:
// going from K to K+1 members must re-own roughly 1/(K+1) of the keys,
// all of them to the new member, not reshuffle everything.
func TestRingMinimalMovement(t *testing.T) {
	const numExt = 256
	before := OwnerMapFor(7, 4, 0, numExt)
	after := OwnerMapFor(7, 5, 0, numExt)

	moved := 0
	for j := range before {
		if before[j] != after[j] {
			if after[j] != 4 {
				t.Fatalf("extender %d moved between OLD members %d→%d", j, before[j], after[j])
			}
			moved++
		}
	}
	// Expectation is numExt/5 ≈ 51; allow generous slack either way but
	// reject a full reshuffle or a dead member.
	if moved == 0 || moved > numExt/2 {
		t.Errorf("adding a 5th member moved %d/%d extenders, want ~%d", moved, numExt, numExt/5)
	}
}

// TestBestExtender pins the routing key through the routing rule: over
// an identity owner map, OwnerForRates names the best-rate extender.
func TestBestExtender(t *testing.T) {
	identity := []int{0, 1, 2}
	cases := []struct {
		rates []float64
		want  int
	}{
		{[]float64{0, 0, 0}, -1},
		{[]float64{0, 5, 0}, 1},
		{[]float64{7, 5, 7}, 0}, // tie → lowest ID
		{nil, -1},
	}
	for _, c := range cases {
		if got := OwnerForRates(identity, c.rates); got != c.want {
			t.Errorf("OwnerForRates(identity, %v) = %d, want %d", c.rates, got, c.want)
		}
	}
}

// TestCoordinatorValidation covers the config error paths NewCoordinator
// shares with Listen.
func TestCoordinatorValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero shards":   {Shards: 0, EngineConfig: control.EngineConfig{PLCCaps: testCaps(4)}},
		"no capacities": {Shards: 2},
		"template sets Owned": {Shards: 2, EngineConfig: control.EngineConfig{
			PLCCaps: testCaps(4), Owned: []int{0, 1},
		}},
	} {
		if _, err := NewCoordinator(cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// newTestCoordinator builds a K-shard coordinator over numExt uniform
// extenders.
func newTestCoordinator(t *testing.T, shards, numExt int, sd int64) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{
		Shards: shards,
		EngineConfig: control.EngineConfig{
			PLCCaps:   testCaps(numExt),
			Policy:    control.PolicyWOLT,
			ModelOpts: model.Options{Redistribute: true},
			Seed:      sd,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorFourShardIntegration is the PR's acceptance test: 16
// users join a 4-shard plane, several are handed off across shards by
// scan updates, and at every step the merged Stats user count matches a
// global single-CC engine driven with the same operations.
func TestCoordinatorFourShardIntegration(t *testing.T) {
	const (
		numExt = 12
		users  = 16
		sd     = 1234
	)
	coord := newTestCoordinator(t, 4, numExt, sd)
	global, err := control.NewEngine(control.EngineConfig{
		PLCCaps:   testCaps(numExt),
		Policy:    control.PolicyWOLT,
		ModelOpts: model.Options{Redistribute: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < users; i++ {
		rates := testRates(sd, i, numExt)
		if _, err := coord.Join(i, rates, nil); err != nil {
			t.Fatalf("coordinator join %d: %v", i, err)
		}
		if _, err := global.Join(i, rates, nil); err != nil {
			t.Fatalf("global join %d: %v", i, err)
		}
	}

	// Force cross-shard handoffs: move users 0 and 1 so their best-rate
	// extender lands in a different member's share than their home.
	for i := 0; i < 2; i++ {
		home := coord.Owner(bestExtender(testRates(sd, i, numExt)))
		// Build a scan whose best extender belongs to another member.
		target := -1
		for j := 0; j < numExt; j++ {
			if coord.Owner(j) != home {
				target = j
				break
			}
		}
		if target < 0 {
			t.Fatal("all extenders owned by one member; cannot exercise a handoff")
		}
		moved := make([]float64, numExt)
		for j := range moved {
			moved[j] = 1
		}
		moved[target] = 99
		if _, err := coord.Update(i, moved, nil); err != nil {
			t.Fatalf("coordinator handoff update %d: %v", i, err)
		}
		if _, err := global.Update(i, moved, nil); err != nil {
			t.Fatalf("global update %d: %v", i, err)
		}
	}

	st := coord.StatsWithAssignment()
	gst := global.Stats()
	if st.Users != gst.Users {
		t.Errorf("merged Users = %d, global single-CC Users = %d", st.Users, gst.Users)
	}
	if st.Users != users {
		t.Errorf("merged Users = %d, want %d", st.Users, users)
	}
	if st.Handoffs < 2 {
		t.Errorf("Handoffs = %d, want >= 2 (updates crossed shard boundaries)", st.Handoffs)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Errorf("Shards = %d, PerShard = %d entries, want 4", st.Shards, len(st.PerShard))
	}

	// The merged assignment must be complete and self-consistent: every
	// user assigned to an extender owned by its shard, and per-shard user
	// counts must sum to the merged total.
	if len(st.Assignment) != users {
		t.Errorf("merged assignment has %d entries, want %d", len(st.Assignment), users)
	}
	sum := 0
	for _, ps := range st.PerShard {
		sum += ps.Users
	}
	if sum != st.Users {
		t.Errorf("per-shard user counts sum to %d, merged Users = %d", sum, st.Users)
	}
	for id, ext := range st.Assignment {
		if ext == model.Unassigned {
			t.Errorf("user %d unassigned in merged view", id)
		}
	}
}

// TestCoordinatorJoinLeave covers the plain lifecycle and the logical
// counters.
func TestCoordinatorJoinLeave(t *testing.T) {
	coord := newTestCoordinator(t, 2, 8, 5)
	rates := testRates(5, 0, 8)
	if _, err := coord.Join(1, rates, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Join(1, rates, nil); err == nil {
		t.Error("duplicate join: want error")
	}
	if _, err := coord.Update(99, rates, nil); err == nil {
		t.Error("update of unknown user: want error")
	}
	if _, ok := coord.Leave(99); ok {
		t.Error("leave of unknown user: want false")
	}
	if _, ok := coord.Leave(1); !ok {
		t.Error("leave of joined user: want true")
	}
	st := coord.Stats()
	if st.Users != 0 || st.Joins != 1 || st.Leaves != 1 {
		t.Errorf("stats = %+v, want 0 users / 1 join / 1 leave", st)
	}
	if _, err := coord.Join(2, make([]float64, 8), nil); err == nil {
		t.Error("unreachable user: want error")
	}
}

// TestCoordinatorDeterministicAcrossWorkers pins the determinism
// contract at the shard layer: the merged assignment is bit-identical
// whether the member engines solve with 1 worker or 8.
func TestCoordinatorDeterministicAcrossWorkers(t *testing.T) {
	const (
		numExt = 12
		users  = 14
		sd     = 4321
	)
	run := func(workers int) map[int]int {
		c, err := NewCoordinator(Config{
			Shards: 4,
			EngineConfig: control.EngineConfig{
				PLCCaps:   testCaps(numExt),
				Policy:    control.PolicyWOLT,
				ModelOpts: model.Options{Redistribute: true},
				Workers:   workers,
				Seed:      sd,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < users; i++ {
			if _, err := c.Join(i, testRates(sd, i, numExt), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c.StatsWithAssignment().Assignment
	}
	if a1, a8 := run(1), run(8); !reflect.DeepEqual(a1, a8) {
		t.Errorf("assignment differs across worker counts:\n1: %v\n8: %v", a1, a8)
	}
}

// TestCoordinatorReassignOnLeave pins the PR-7 plumbing: Config.Budget
// and Config.ReassignOnLeave reach the member engines, a departure's
// rebalancing directives come back through Coordinator.Leave with
// globally-correct reassociation flags, and the merged Stats sum the
// members' DroppedReassigns.
func TestCoordinatorReassignOnLeave(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Shards: 2,
		EngineConfig: control.EngineConfig{
			PLCCaps:         testCaps(8),
			Policy:          "wolt-hillclimb",
			ModelOpts:       model.Options{Redistribute: true},
			Seed:            11,
			Budget:          strategy.Budget{Probes: 500},
			ReassignOnLeave: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := coord.Join(i, testRates(17, i, 8), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := coord.Stats()
	if before.DroppedReassigns != 0 {
		t.Fatalf("DroppedReassigns = %d before any leave", before.DroppedReassigns)
	}

	// Drain half the population; any rebalancing directives must only
	// move users that are still present, and every move must be flagged
	// as a reassociation (the moved users were already associated).
	for i := 0; i < 20; i++ {
		dirs, ok := coord.Leave(i)
		if !ok {
			t.Fatalf("leave of user %d reported not present", i)
		}
		for _, d := range dirs {
			if d.UserID <= i {
				t.Fatalf("leave of %d produced directive for departed user %d", i, d.UserID)
			}
			if !d.Reassociation {
				t.Errorf("leave rebalance moved user %d without reassociation flag", d.UserID)
			}
		}
	}
	st := coord.StatsWithAssignment()
	if st.Users != 20 || st.Leaves != 20 {
		t.Fatalf("stats = %d users / %d leaves, want 20 / 20", st.Users, st.Leaves)
	}
	if st.DroppedReassigns != 0 {
		t.Errorf("healthy leave path dropped %d reassigns", st.DroppedReassigns)
	}
	// The merged assignment must agree with the members' own tables.
	perShardUsers := 0
	for _, es := range st.PerShard {
		perShardUsers += es.Users
		for id, ext := range es.Assignment {
			if st.Assignment[id] != ext {
				t.Errorf("user %d: merged assignment %d, member reports %d", id, st.Assignment[id], ext)
			}
		}
	}
	if perShardUsers != st.Users {
		t.Errorf("per-shard users sum to %d, coordinator reports %d", perShardUsers, st.Users)
	}
}

// Owner returns the member ID owning the given extender.
func (c *Coordinator) Owner(extender int) int {
	if extender < 0 || extender >= len(c.ownerOf) {
		return -1
	}
	return c.ownerOf[extender]
}
