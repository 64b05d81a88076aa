package city

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/shard"
	"github.com/plcwifi/wolt/internal/strategy"
)

// TestMain doubles this test binary as a shard-member host: when
// WOLT_CITY_TCP_HELPER names a member ID the process serves that member
// of the 10^4-user benchmark deployment until stdin closes, instead of
// running tests. The big TCP benchmarks re-exec os.Args[0] into this
// mode so the parent holds only the ~10^4 client sockets while each
// child holds its shard's server sockets — one process could not stay
// inside the fd limit with both halves of 10^4 connections.
func TestMain(m *testing.M) {
	if member := os.Getenv("WOLT_CITY_TCP_HELPER"); member != "" {
		runTCPMember(member)
		return
	}
	os.Exit(m.Run())
}

// tcp10KConfig is the shared parent/child description of the 10^4-user
// TCP benchmark: every field that shapes the member engines or the ring
// must be explicit here, because the child processes rebuild the same
// deployment from this function alone.
func tcp10KConfig() Config {
	return Config{
		Shards:              8,
		ExtendersPerShard:   8,
		TargetUsers:         10_000,
		InitialFill:         1.0,
		DwellMean:           3000,
		Horizon:             30,
		UpdateMean:          1500,
		Policy:              "wolt-hillclimb",
		Budget:              strategy.Budget{Probes: 200},
		PlacementOnlyJoins:  true,
		FullResolveEvery:    64,
		Concurrency:         8,
		SkipFinalAssignment: true,
		Seed:                2026,
	}
}

// tcpPortBase is where the benchmark members listen (member k on
// base+k); WOLT_CITY_TCP_PORT overrides it if the range is taken. The
// default sits below Linux's ephemeral range (32768–60999 on stock
// kernels): the harness itself opens thousands of outgoing sockets, and
// a base inside the ephemeral range loses a bind race against its own
// clients' just-released connect() ports.
func tcpPortBase() int {
	if s := os.Getenv("WOLT_CITY_TCP_PORT"); s != "" {
		if p, err := strconv.Atoi(s); err == nil {
			return p
		}
	}
	return 23711
}

func tcpPeerAddrs(shards int) []string {
	base := tcpPortBase()
	peers := make([]string, shards)
	for m := range peers {
		peers[m] = net.JoinHostPort("127.0.0.1", strconv.Itoa(base+m))
	}
	return peers
}

// runTCPMember hosts one shard member of the benchmark deployment and
// serves until the parent closes our stdin.
func runTCPMember(memberStr string) {
	member, err := strconv.Atoi(memberStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad WOLT_CITY_TCP_HELPER %q: %v\n", memberStr, err)
		os.Exit(1)
	}
	cfg := tcp10KConfig()
	c, err := New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "member %d: %v\n", member, err)
		os.Exit(1)
	}
	peers := tcpPeerAddrs(cfg.Shards)
	plane, err := shard.Listen(shard.PlaneConfig{
		Config: shard.Config{Shards: cfg.Shards, EngineConfig: c.engineConfig()},
		Addr:   peers[member],
		Member: member,
		Peers:  peers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "member %d: %v\n", member, err)
		os.Exit(1)
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // serve until the parent exits
	_ = plane.Close()
	os.Exit(0)
}

// spawnTCPMembers re-execs this test binary into one member process per
// extender-owning shard and waits until every one accepts connections.
// The returned stop function shuts them all down.
func spawnTCPMembers(b *testing.B) (stop func()) {
	b.Helper()
	cfg := tcp10KConfig()
	owners := shard.OwnerMapFor(cfg.Seed, cfg.Shards, 0, cfg.Shards*cfg.ExtendersPerShard)
	owning := make(map[int]bool)
	for _, m := range owners {
		owning[m] = true
	}
	peers := tcpPeerAddrs(cfg.Shards)

	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	shutdown := func() {
		for _, ch := range children {
			_ = ch.stdin.Close()
		}
		for _, ch := range children {
			_ = ch.cmd.Wait()
		}
	}
	for m := 0; m < cfg.Shards; m++ {
		if !owning[m] {
			continue
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "WOLT_CITY_TCP_HELPER="+strconv.Itoa(m))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			shutdown()
			b.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			shutdown()
			b.Fatal(err)
		}
		children = append(children, child{cmd: cmd, stdin: stdin})
	}
	for m := 0; m < cfg.Shards; m++ {
		if !owning[m] {
			continue
		}
		ok := false
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
			conn, err := net.DialTimeout("tcp", peers[m], time.Second)
			if err == nil {
				_ = conn.Close()
				ok = true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !ok {
			shutdown()
			b.Fatalf("member %d never came up on %s", m, peers[m])
		}
	}
	return shutdown
}

// reportTCP publishes one TCP run's metrics (the BENCH_wire.jsonl rows).
func reportTCP(b *testing.B, res Result) {
	b.Helper()
	b.ReportMetric(res.JoinsPerSec, "joins/sec")
	b.ReportMetric(float64(res.P50Latency.Microseconds()), "p50_us")
	b.ReportMetric(float64(res.P99Latency.Microseconds()), "p99_us")
	b.ReportMetric(float64(res.PeakUsers), "users_peak")
	b.ReportMetric(float64(res.Events), "events")
	b.ReportMetric(float64(res.Directives), "directives")
	b.ReportMetric(float64(res.DroppedPushes), "dropped_pushes")
	b.ReportMetric(float64(res.Redirects), "redirects")
}

// BenchmarkCityTCPSmoke is the CI-sized TCP row: members hosted
// in-process on ephemeral ports, a few hundred users over live sockets
// with mobility on — every wire-path branch (dial, handshake, binary
// frames, async pushes, leaves) in well under a second.
func BenchmarkCityTCPSmoke(b *testing.B) {
	cfg := Config{
		Shards:             2,
		ExtendersPerShard:  4,
		TargetUsers:        300,
		InitialFill:        1.0,
		DwellMean:          20,
		Horizon:            10,
		UpdateMean:         30,
		Policy:             "wolt-hillclimb",
		Budget:             strategy.Budget{Probes: 200},
		PlacementOnlyJoins: true,
		Concurrency:        4,
		Seed:               2026,
	}
	for i := 0; i < b.N; i++ {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		plane, err := c.NewTCPPlane(TCPConfig{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(plane)
		_ = plane.Close()
		if err != nil {
			b.Fatal(err)
		}
		reportTCP(b, res)
	}
}

// BenchmarkCityTCP10K drives the 10^4-user city against out-of-process
// members — the acceptance row scripts/bench.sh wire records. A run
// that sustains fewer than 10^4 users fails.
func BenchmarkCityTCP10K(b *testing.B) {
	if os.Getenv("WOLT_CITY_TCP") == "" {
		b.Skip("set WOLT_CITY_TCP=1 to run the multi-process 10^4-user TCP benchmark")
	}
	cfg := tcp10KConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh member processes per iteration: engines must start empty
		// (the run re-joins the same user IDs every replay). Spawn and
		// teardown stay off the clock.
		b.StopTimer()
		stop := spawnTCPMembers(b)
		c, err := New(cfg)
		if err != nil {
			stop()
			b.Fatal(err)
		}
		b.StartTimer()
		plane, err := c.NewTCPPlane(TCPConfig{Peers: tcpPeerAddrs(cfg.Shards)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(plane)
		b.StopTimer()
		closeErr := plane.Close()
		stop()
		if err != nil {
			b.Fatal(err)
		}
		if closeErr != nil {
			b.Fatal(closeErr)
		}
		if res.PeakUsers < 10_000 {
			b.Fatalf("sustained only %d users, want >= 10000", res.PeakUsers)
		}
		reportTCP(b, res)
		b.StartTimer()
	}
}
