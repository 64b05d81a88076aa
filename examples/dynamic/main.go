// Dynamic: online operation of WOLT under user churn (the paper's
// Fig 6b/6c). Users arrive as a Poisson process (rate 3) and depart
// (rate 1); arrivals first associate by strongest signal to reach the
// controller, and at every epoch boundary WOLT recomputes the full
// association. The run prints per-epoch population, aggregate throughput
// against the never-reassigning Greedy baseline, and WOLT's
// re-association overhead.
//
// Run with:
//
//	go run ./examples/dynamic [-epochs 3] [-users 36]
package main

import (
	"flag"
	"fmt"
	"log"

	wolt "github.com/plcwifi/wolt"
)

func main() {
	epochs := flag.Int("epochs", 3, "number of 16-time-unit epochs")
	users := flag.Int("users", 36, "initial user population")
	extenders := flag.Int("extenders", 10, "extenders")
	seed := flag.Int64("seed", 2020, "random seed")
	flag.Parse()

	radio := wolt.DefaultRadioModel()
	radio.Channel.TxPowerDBm = 14
	radio.Channel.PathLossExponent = 3.5
	radio.ShadowSeed = *seed

	evalOpts := wolt.EvalOptions{Redistribute: true}
	const epochLen = 16.0
	cfg := wolt.DynamicConfig{
		Topology: wolt.TopologyConfig{
			Width: 100, Height: 100,
			NumExtenders:       *extenders,
			NumUsers:           *users,
			PLCCapacityMinMbps: 300,
			PLCCapacityMaxMbps: 800,
			Seed:               *seed,
		},
		Radio: &radio,
		Churn: wolt.ChurnConfig{
			ArrivalRate:   3,
			DepartureRate: 1,
			Horizon:       epochLen * float64(*epochs),
			Seed:          *seed,
		},
		EpochLen:  epochLen,
		ModelOpts: evalOpts,
	}

	woltEpochs, err := wolt.RunDynamic(cfg, wolt.WOLTPolicy())
	if err != nil {
		log.Fatal(err)
	}
	greedyEpochs, err := wolt.RunDynamic(cfg, wolt.GreedyPolicy(evalOpts))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dynamic run: %d extenders, %d initial users, arrival rate 3 / departure rate 1\n\n",
		*extenders, *users)
	fmt.Printf("%-6s  %-6s  %-9s  %-9s  %-11s  %-12s  %-12s\n",
		"epoch", "users", "arrivals", "departs", "WOLT Mbps", "Greedy Mbps", "reassigned")
	for k := range woltEpochs {
		w, g := woltEpochs[k], greedyEpochs[k]
		fmt.Printf("%-6d  %-6d  %-9d  %-9d  %-11.1f  %-12.1f  %d (%.1f/arrival)\n",
			k+1, w.Users, w.Arrivals, w.Departures, w.Aggregate, g.Aggregate,
			w.Reassignments, perArrival(w.Reassignments, w.Arrivals))
	}
}

func perArrival(reassigned, arrivals int) float64 {
	if arrivals == 0 {
		return 0
	}
	return float64(reassigned) / float64(arrivals)
}
