package city

import (
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/shard"
)

// tcpDiffConfig is the shared instance for the TCP differential tests:
// mobility off, because the TCP plane pins each user to its join-time
// member (cross-member mobility handoff is the ROADMAP's replicated-
// membership follow-up), so roaming would legitimately diverge from the
// in-process coordinator's handoffs. Under rssi with static users, both
// planes must end in the identical association.
func tcpDiffConfig() Config {
	return Config{
		Shards:      2,
		TargetUsers: 300,
		Horizon:     15,
		DwellMean:   10,
		Policy:      "rssi",
		Seed:        99,
	}
}

// TestCityTCPDifferentialVsCoordinator replays one event stream against
// the in-process coordinator and against the TCP plane: identical event
// counters, identical final association. This is the end-to-end proof
// that the wire protocol (dial, handshake, frame codec, directive push)
// is a faithful transport around the same engines.
func TestCityTCPDifferentialVsCoordinator(t *testing.T) {
	c, err := New(tcpDiffConfig())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(coord)
	if err != nil {
		t.Fatal(err)
	}
	if want.PeakUsers < 200 {
		t.Fatalf("peak population %d; stream too small to mean anything", want.PeakUsers)
	}

	t.Run("binary", func(t *testing.T) {
		plane, err := c.NewTCPPlane(TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer plane.Close()
		got, err := c.Run(plane)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{
			{got.Joins, want.Joins},
			{got.Leaves, want.Leaves},
			{got.Events, want.Events},
			{got.FinalUsers, want.FinalUsers},
		} {
			if pair[0] != pair[1] {
				t.Fatalf("tcp/coordinator event streams diverged:\n tcp   %+v\n coord %+v", got, want)
			}
		}
		if !reflect.DeepEqual(got.FinalAssignment, want.FinalAssignment) {
			diff := 0
			for id, ext := range want.FinalAssignment {
				if got.FinalAssignment[id] != ext {
					diff++
				}
			}
			t.Errorf("final associations differ for %d/%d users", diff, len(want.FinalAssignment))
		}
		if got.Redirects != 0 {
			t.Errorf("client-side owner routing still followed %d redirects", got.Redirects)
		}
		// Every join's reply directive must have been delivered.
		if got.Directives < got.Joins {
			t.Errorf("agents saw %d directives for %d joins", got.Directives, got.Joins)
		}
	})
}

// TestCityTCPConcurrentWithMobility drives the TCP plane with worker
// lanes and mobility on — the benchmark's load shape at test scale:
// overlapping joins, roam updates and departures on live sockets, with
// the hillclimb policy pushing re-associations. Invariant checks only
// (the interleaving is timing-dependent by design).
func TestCityTCPConcurrentWithMobility(t *testing.T) {
	cfg := Config{
		Shards:             2,
		TargetUsers:        200,
		Horizon:            12,
		DwellMean:          8,
		UpdateMean:         10,
		Policy:             "wolt-hillclimb",
		PlacementOnlyJoins: true,
		Seed:               7,
		Concurrency:        4,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := c.NewTCPPlane(TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	res, err := c.Run(plane)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Updates == 0 || res.Leaves == 0 {
		t.Fatalf("degenerate stream: %+v", res)
	}
	if res.Directives < res.Joins {
		t.Errorf("agents saw %d directives for %d joins", res.Directives, res.Joins)
	}
	// Stats waits until every member has dropped its departed users.
	st, err := plane.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != res.FinalUsers {
		t.Errorf("plane tracks %d users at end of run, harness %d", st.Users, res.FinalUsers)
	}
}

// TestCityTCPAttachedStats attaches a TCPPlane to members started with
// shard.Listen in this process — the Peers mode the multi-process
// benchmark uses — and requires its wire-probed Stats (one MsgStats
// reply per member, folded by shard.MergeStats) to match the hosting
// plane's own Stats.
func TestCityTCPAttachedStats(t *testing.T) {
	c, err := New(tcpDiffConfig())
	if err != nil {
		t.Fatal(err)
	}
	host, err := shard.Listen(shard.PlaneConfig{
		Config: shard.Config{Shards: c.cfg.Shards, EngineConfig: c.engineConfig()},
		Addr:   "127.0.0.1:0",
		Member: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	plane, err := c.NewTCPPlane(TCPConfig{Peers: host.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	res, err := c.Run(plane)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("degenerate stream: %+v", res)
	}

	// The plane's Stats waits until every member has dropped its
	// departed users, so the hosted snapshot taken after it is final.
	got, err := plane.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := host.Stats()
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"Users", got.Users, want.Users},
		{"Joins", got.Joins, want.Joins},
		{"Leaves", got.Leaves, want.Leaves},
		{"Reassociations", got.Reassociations, want.Reassociations},
		{"len(PerShard)", len(got.PerShard), len(want.PerShard)},
	} {
		if f.got != f.want {
			t.Errorf("%s: wire-probed %d, hosted %d", f.name, f.got, f.want)
		}
	}
	if want.Joins != res.Joins || want.Users != res.FinalUsers {
		t.Errorf("hosted plane counts %d joins / %d users, harness %d / %d",
			want.Joins, want.Users, res.Joins, res.FinalUsers)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Errorf("wire-probed assignment (%d users) differs from hosted (%d users)",
			len(got.Assignment), len(want.Assignment))
	}
}
