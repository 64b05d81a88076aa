package shard

import (
	"reflect"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
)

// TestPlaneRedirect boots a two-member TCP plane in one process, dials
// the WRONG member for a user, and checks that the agent transparently
// follows the MsgRedirect handoff to the owning member.
func TestPlaneRedirect(t *testing.T) {
	const numExt = 16
	p, err := Listen(PlaneConfig{
		Addr:   "127.0.0.1:0",
		Member: -1,
		Config: Config{
			Shards: 2,
			EngineConfig: control.EngineConfig{
				PLCCaps:   testCaps(numExt),
				Policy:    control.PolicyWOLT,
				ModelOpts: model.Options{Redistribute: true},
				Seed:      77,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	addrs := p.Addrs()
	// Find two members that both own extenders (and therefore run
	// servers), and an extender owned by the second.
	var front, ownerMember, target = -1, -1, -1
	for m, addr := range addrs {
		if addr == "" {
			continue
		}
		if front < 0 {
			front = m
		} else if ownerMember < 0 {
			ownerMember = m
		}
	}
	if front < 0 || ownerMember < 0 {
		t.Skip("ring gave one member everything at this seed; nothing to redirect between")
	}
	for j := 0; j < numExt; j++ {
		if p.Owner(j) == ownerMember {
			target = j
			break
		}
	}
	if target < 0 {
		t.Fatalf("member %d runs a server but owns nothing", ownerMember)
	}

	// The user's best-rate extender belongs to ownerMember, but it dials
	// front.
	rates := make([]float64, numExt)
	for j := range rates {
		rates[j] = 1
	}
	rates[target] = 80

	a, err := control.Dial(addrs[front], 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	ext, err := a.Join(rates, nil, 5*time.Second)
	if err != nil {
		t.Fatalf("redirected join: %v", err)
	}
	if got := p.Owner(ext); got != ownerMember {
		t.Errorf("user landed on extender %d (member %d), want a member-%d extender",
			ext, got, ownerMember)
	}

	st := p.Stats()
	if st.Users != 1 {
		t.Errorf("merged Users = %d, want 1", st.Users)
	}
	if st.Redirects != 1 {
		t.Errorf("Redirects = %d, want 1", st.Redirects)
	}
}

// TestPlaneValidation covers the config error paths.
func TestPlaneValidation(t *testing.T) {
	template := func(shards int, caps []float64, owned ...int) Config {
		return Config{Shards: shards, EngineConfig: control.EngineConfig{PLCCaps: caps, Owned: owned}}
	}
	for name, cfg := range map[string]PlaneConfig{
		"zero shards":               {Config: template(0, testCaps(4)), Addr: "127.0.0.1:0", Member: -1},
		"no capacities":             {Config: template(2, nil), Addr: "127.0.0.1:0", Member: -1},
		"member out of range":       {Config: template(2, testCaps(4)), Addr: "127.0.0.1:0", Member: 5},
		"member mode without peers": {Config: template(2, testCaps(4)), Addr: "127.0.0.1:0", Member: 0},
		"unparseable address":       {Config: template(1, testCaps(4)), Addr: "nonsense", Member: -1},
		"template sets Owned":       {Config: template(2, testCaps(4), 0), Addr: "127.0.0.1:0", Member: -1},
	} {
		if _, err := Listen(cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestTransportsDeriveSameMembers pins that both transports build their
// members from one Config the same way. Ownership: the coordinator, the
// TCP plane and a client's OwnerMapFor agree on every extender. Member
// engines: under the seed-sensitive random policy, the same joins in the
// same order end in the same assignment in process and over TCP, which
// holds only if both derive each member's seed identically.
func TestTransportsDeriveSameMembers(t *testing.T) {
	const (
		numExt = 12
		users  = 24
	)
	for _, tc := range []struct {
		seed   int64
		shards int
	}{{77, 2}, {5, 3}, {1234, 4}} {
		cfg := Config{Shards: tc.shards, EngineConfig: control.EngineConfig{
			PLCCaps: testCaps(numExt),
			Policy:  "random",
			Seed:    tc.seed,
		}}
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Listen(PlaneConfig{Config: cfg, Addr: "127.0.0.1:0", Member: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		owners := OwnerMapFor(tc.seed, tc.shards, 0, numExt)
		for j := 0; j < numExt; j++ {
			if c, l := coord.Owner(j), p.Owner(j); c != owners[j] || l != owners[j] {
				t.Errorf("seed %d, %d shards: extender %d owned by member %d (coordinator), %d (plane), %d (OwnerMapFor)",
					tc.seed, tc.shards, j, c, l, owners[j])
			}
		}

		for i := 0; i < users; i++ {
			rates := testRates(tc.seed, i, numExt)
			if _, err := coord.Join(i, rates, nil); err != nil {
				t.Fatal(err)
			}
			a, err := control.Dial(p.Addrs()[OwnerForRates(owners, rates)], i)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close() })
			if _, err := a.Join(rates, nil, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		got, want := p.Stats().Assignment, coord.StatsWithAssignment().Assignment
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, %d shards: plane assignment %v, coordinator %v", tc.seed, tc.shards, got, want)
		}
	}
}

// TestPlaneSingleShardIsGlobal sanity-checks the degenerate plane: one
// member owns everything and no join is ever redirected.
func TestPlaneSingleShardIsGlobal(t *testing.T) {
	p, err := Listen(PlaneConfig{
		Addr:   "127.0.0.1:0",
		Member: -1,
		Config: Config{
			Shards: 1,
			EngineConfig: control.EngineConfig{
				PLCCaps:   testCaps(4),
				ModelOpts: model.Options{Redistribute: true},
				Seed:      3,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	a, err := control.Dial(p.Addrs()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	if _, err := a.Join([]float64{5, 10, 2, 1}, nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Users != 1 || st.Redirects != 0 {
		t.Errorf("stats = %+v, want 1 user / 0 redirects", st)
	}
}

// Owner returns the member owning the given extender.
func (p *Plane) Owner(extender int) int {
	if extender < 0 || extender >= len(p.ownerOf) {
		return -1
	}
	return p.ownerOf[extender]
}
