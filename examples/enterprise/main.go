// Enterprise: the paper's large-scale simulation scenario through the
// public API. A 100 m × 100 m floor with 10 PLC-WiFi extenders on
// AV2-class powerline links and 36 users; WOLT is compared against the
// Greedy, Selfish and RSSI baselines over independent random topologies,
// reporting mean aggregate throughput, the throughput CDF and Jain's
// fairness index (the paper's Fig 6a and §V-E fairness discussion).
//
// Run with:
//
//	go run ./examples/enterprise [-trials 30] [-users 36] [-extenders 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	wolt "github.com/plcwifi/wolt"
)

func main() {
	trials := flag.Int("trials", 30, "independent random topologies")
	users := flag.Int("users", 36, "users per topology")
	extenders := flag.Int("extenders", 10, "extenders per topology")
	seed := flag.Int64("seed", 2020, "random seed")
	flag.Parse()

	// Enterprise calibration: AV2-class PLC links (300–800 Mbps) and a
	// lossy indoor channel with wall shadowing, so that user channel
	// qualities span the full good-to-poor range.
	radio := wolt.DefaultRadioModel()
	radio.Channel.TxPowerDBm = 14
	radio.Channel.PathLossExponent = 3.5
	radio.ShadowSeed = *seed

	evalOpts := wolt.EvalOptions{Redistribute: true}
	cfg := wolt.StaticConfig{
		Topology: wolt.TopologyConfig{
			Width: 100, Height: 100,
			NumExtenders:       *extenders,
			NumUsers:           *users,
			PLCCapacityMinMbps: 300,
			PLCCapacityMaxMbps: 800,
			Seed:               *seed,
		},
		Radio:     &radio,
		Trials:    *trials,
		ModelOpts: evalOpts,
	}
	policies := []wolt.Policy{
		wolt.WOLTPolicy(),
		wolt.GreedyPolicy(evalOpts),
		wolt.SelfishPolicy(evalOpts),
		wolt.RSSIPolicy(),
	}

	results, err := wolt.RunStatic(cfg, policies)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("enterprise simulation: %d extenders, %d users, %d trials\n\n",
		*extenders, *users, *trials)
	fmt.Printf("%-8s  %-10s  %-10s  %-10s  %-6s\n", "policy", "mean Mbps", "min Mbps", "max Mbps", "Jain")
	woltMean := results[0].MeanAggregate()
	for _, r := range results {
		aggs := r.Aggregates()
		sort.Float64s(aggs)
		fmt.Printf("%-8s  %-10.1f  %-10.1f  %-10.1f  %.2f",
			r.Policy, r.MeanAggregate(), aggs[0], aggs[len(aggs)-1], r.MeanJain())
		if r.Policy != "WOLT" {
			fmt.Printf("   (WOLT ×%.2f)", woltMean/r.MeanAggregate())
		}
		fmt.Println()
	}

	fmt.Println("\naggregate-throughput CDF (Mbps at deciles):")
	fmt.Printf("%-8s", "policy")
	for p := 10; p <= 90; p += 20 {
		fmt.Printf("  p%-6d", p)
	}
	fmt.Println()
	for _, r := range results {
		aggs := r.Aggregates()
		sort.Float64s(aggs)
		fmt.Printf("%-8s", r.Policy)
		for p := 10; p <= 90; p += 20 {
			idx := p * (len(aggs) - 1) / 100
			fmt.Printf("  %-7.1f", aggs[idx])
		}
		fmt.Println()
	}
}
