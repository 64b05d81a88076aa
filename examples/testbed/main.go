// Testbed: the full distributed system end-to-end through the public
// API. A central controller listens on a real TCP socket; user agents
// connect, send their scan reports, and receive association directives —
// including WOLT pushing a re-association to user 1 once user 2 appears
// (the paper's Fig 3 story). The resulting association is then measured
// with real shaped TCP flows on the emulated testbed.
//
// Run with:
//
//	go run ./examples/testbed
package main

import (
	"fmt"
	"log"
	"time"

	wolt "github.com/plcwifi/wolt"
)

func main() {
	network := &wolt.Network{
		WiFiRates: [][]float64{
			{15, 10},
			{40, 20},
		},
		PLCCaps: []float64{60, 20},
	}

	// Start the central controller (in production: cmd/woltcc).
	controller, err := wolt.NewController("127.0.0.1:0", wolt.ControllerConfig{
		EngineConfig: wolt.EngineConfig{
			PLCCaps: network.PLCCaps,
			Policy:  wolt.ControllerWOLT,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = controller.Close() }()
	fmt.Printf("central controller on %s\n", controller.Addr())

	// User 1 arrives and joins (in production: cmd/woltagent).
	agent1, err := wolt.DialAgent(controller.Addr(), 1)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = agent1.Close() }()
	ext1, err := agent1.Join(network.WiFiRates[0], []float64{-60, -70}, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user 1 joined -> extender %d\n", ext1)

	// User 2 arrives; WOLT recomputes and re-associates user 1.
	agent2, err := wolt.DialAgent(controller.Addr(), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = agent2.Close() }()
	ext2, err := agent2.Join(network.WiFiRates[1], []float64{-55, -65}, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user 2 joined -> extender %d\n", ext2)

	moved, err := agent1.WaitForMove(ext1, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("controller re-associated user 1: extender %d -> %d\n", ext1, moved)

	stats, err := agent2.Stats(5 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("controller stats: users=%d joins=%d reassociations=%d\n",
		stats.Users, stats.Joins, stats.Reassociations)

	// Measure the final association with real shaped TCP flows.
	assign := wolt.Assignment{stats.Assignment[1], stats.Assignment[2]}
	run, err := wolt.RunTestbed(wolt.TestbedConfig{
		Net:      network,
		Assign:   assign,
		Opts:     wolt.EvalOptions{Redistribute: true},
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nemulated-testbed measurement of %v:\n", assign)
	for _, f := range run.Flows {
		fmt.Printf("  user %d: target %.1f Mbps, measured %.1f Mbps\n",
			f.User+1, f.TargetMbps, f.MeasuredMbps)
	}
	fmt.Printf("  aggregate: %.1f Mbps (model predicts %.1f)\n",
		run.AggregateMbps, run.ModelAggregateMbps)
}
