// Command woltcc runs the WOLT Central Controller: it listens for user
// agents (see cmd/woltagent), collects their scan reports, computes
// associations under the configured policy and pushes directives.
// Agents speak the length-prefixed binary framing (internal/wire); a
// connection that does not open with the wire hello, or offers an
// unknown version, is closed.
//
// With -shards N the controller runs as a sharded control plane: a
// deterministic consistent-hash ring partitions the extenders across N
// shard members, each backed by its own policy engine, and joins that
// enter through the wrong member are redirected to the owning one
// (agents follow redirects transparently). By default all N members run
// in this process on consecutive ports; -shard-member k hosts only
// member k, with -peers naming every member's address so redirects can
// cross processes.
//
// Examples:
//
//	woltcc -addr 127.0.0.1:9650 -caps 60,20 -policy wolt
//	woltcc -addr 127.0.0.1:9650 -caps 60,20,40,30 -shards 2
//	woltcc -addr 127.0.0.1:9651 -caps 60,20,40,30 -shards 2 \
//	       -shard-member 1 -peers 127.0.0.1:9650,127.0.0.1:9651
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "woltcc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("woltcc", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9650", "listen address (base address in sharded mode)")
		capsFlag = fs.String("caps", "", "comma-separated PLC isolation capacities in Mbps, one per extender (required)")
		policy   = fs.String("policy", "wolt", "association policy (any strategy-registry name, plus rssi)")
		statsSec = fs.Duration("stats-interval", 10*time.Second, "interval between stats log lines (0 disables)")
		shards   = fs.Int("shards", 1, "partition the extenders across N consistent-hash shard members")
		member   = fs.Int("shard-member", -1, "host only this shard member (default: all members in-process)")
		peers    = fs.String("peers", "", "comma-separated addresses of all shard members, required with -shard-member")
		seedFlag = fs.Int64("seed", 2020, "seed for the shard ring and policy randomness; all members must share it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	caps, err := parseCaps(*capsFlag)
	if err != nil {
		return err
	}

	logger := log.New(os.Stderr, "woltcc: ", log.LstdFlags)
	engine := control.EngineConfig{
		PLCCaps:   caps,
		Policy:    *policy,
		ModelOpts: model.Options{Redistribute: true},
		Seed:      *seedFlag,
	}
	if *shards > 1 || *member >= 0 {
		var peerList []string
		if *peers != "" {
			for _, p := range strings.Split(*peers, ",") {
				peerList = append(peerList, strings.TrimSpace(p))
			}
		}
		return runSharded(shard.PlaneConfig{
			Config: shard.Config{Shards: *shards, EngineConfig: engine},
			Addr:   *addr,
			Member: *member,
			Peers:  peerList,
			Logger: logger,
		}, *statsSec)
	}

	server, err := control.NewServer(*addr, control.ServerConfig{EngineConfig: engine, Logger: logger})
	if err != nil {
		return err
	}
	logger.Printf("central controller listening on %s (policy=%s, %d extenders)",
		server.Addr(), *policy, len(caps))

	return serve(logger, *statsSec, func() {
		st := server.StatsSnapshot()
		logger.Printf("users=%d joins=%d leaves=%d reassociations=%d",
			st.Users, st.Joins, st.Leaves, st.Reassociations)
	}, server.Close)
}

// runSharded boots the consistent-hash shard plane and logs merged
// stats until interrupted.
func runSharded(cfg shard.PlaneConfig, statsSec time.Duration) error {
	logger := cfg.Logger
	plane, err := shard.Listen(cfg)
	if err != nil {
		return err
	}
	for _, m := range plane.Members() {
		if a := plane.Addrs()[m]; a != "" {
			logger.Printf("shard member %d/%d listening on %s (policy=%s, %d extenders total)",
				m, cfg.Shards, a, cfg.Policy, len(cfg.PLCCaps))
		} else {
			logger.Printf("shard member %d/%d owns no extenders; no listener", m, cfg.Shards)
		}
	}

	return serve(logger, statsSec, func() {
		st := plane.Stats()
		logger.Printf("shards=%d users=%d joins=%d leaves=%d reassociations=%d redirects=%d",
			st.Shards, st.Users, st.Joins, st.Leaves, st.Reassociations, st.Redirects)
	}, plane.Close)
}

// serve runs logStats every interval (0 disables it) until SIGINT or
// SIGTERM, then shuts the controller down with closeFn.
func serve(logger *log.Logger, interval time.Duration, logStats func(), closeFn func() error) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if interval > 0 {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			logStats()
		case <-stop:
			logger.Print("shutting down")
			return closeFn()
		}
	}
}

func parseCaps(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("-caps is required (e.g. -caps 60,20)")
	}
	parts := strings.Split(s, ",")
	caps := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad capacity %q: %w", p, err)
		}
		caps[i] = v
	}
	return caps, nil
}
