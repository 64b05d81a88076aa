// Command woltagent runs one WOLT user agent: it connects to the central
// controller, reports the user's scanned WiFi rates (and optionally
// RSSI), prints the association directives it receives, and leaves
// cleanly on interrupt.
//
// Against a sharded controller (woltcc -shards N) any member's address
// works: if the dialed member does not own the user's best-rate
// extender, the agent transparently follows the controller's redirect to
// the owning member. Idle connections are kept alive with periodic
// pings, so a quiet agent is never dropped by the controller's read
// deadline.
//
// The agent speaks the length-prefixed binary wire protocol
// (internal/wire), opening each connection with the version hello.
//
// Example:
//
//	woltagent -addr 127.0.0.1:9650 -user 1 -rates 15,10 -rssi -60,-70
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/plcwifi/wolt/internal/control"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "woltagent:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("woltagent", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:9650", "controller address")
		userID    = fs.Int("user", 0, "user ID (must be unique per agent)")
		ratesFlag = fs.String("rates", "", "comma-separated WiFi PHY rates in Mbps, one per extender (required)")
		rssiFlag  = fs.String("rssi", "", "comma-separated RSSI in dBm, one per extender (optional)")
		timeout   = fs.Duration("timeout", 10*time.Second, "association wait timeout")
		once      = fs.Bool("once", false, "exit after the first directive instead of staying associated")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rates, err := parseFloats(*ratesFlag)
	if err != nil || len(rates) == 0 {
		return fmt.Errorf("-rates is required (e.g. -rates 15,10): %v", err)
	}
	var rssi []float64
	if *rssiFlag != "" {
		if rssi, err = parseFloats(*rssiFlag); err != nil {
			return err
		}
	}

	agent, err := control.Dial(*addr, *userID)
	if err != nil {
		return err
	}
	defer func() { _ = agent.Close() }()

	ext, err := agent.Join(rates, rssi, *timeout)
	if err != nil {
		return err
	}
	fmt.Printf("user %d associated with extender %d\n", *userID, ext)
	if *once {
		return agent.Leave()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	current := ext
	for {
		select {
		case <-ticker.C:
			if now := agent.Extender(); now != current {
				fmt.Printf("user %d re-associated: extender %d -> %d\n", *userID, current, now)
				current = now
			}
		case <-stop:
			fmt.Printf("user %d leaving (moved %d times)\n", *userID, agent.Moves())
			return agent.Leave()
		}
	}
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
