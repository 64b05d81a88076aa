// Command woltsim regenerates the paper's tables and figures.
//
// Usage:
//
//	woltsim [flags] <experiment>
//
// Experiments: fig2a fig2b fig2c fig3 fig4a fig4b fig4c fig5 fig6a
// fig6b fig6c fairness nphard gap solve anytime frontier sweep mobility
// channels qos shard city verify all
//
// Each experiment prints one or more paper-style tables. See DESIGN.md
// for the experiment ↔ paper mapping and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/plcwifi/wolt/internal/experiments"
	"github.com/plcwifi/wolt/internal/export"
	"github.com/plcwifi/wolt/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "woltsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "woltsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("woltsim", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 2020, "random seed for all experiments")
		trials    = fs.Int("trials", 0, "override trial count (0 = paper defaults)")
		users     = fs.Int("users", 0, "override simulated user count (0 = 36)")
		extenders = fs.Int("extenders", 0, "override simulated extender count (0 = 10)")
		macDur    = fs.Float64("mac-duration", 0, "simulated seconds for MAC-level runs (0 = 20)")
		emuDur    = fs.Duration("emu-duration", 0, "wall-clock window per emulated flow (0 = 1s)")
		workers   = fs.Int("workers", 0, "worker goroutines for trial fan-out (0 = all cores); results are identical for any value")
		lanes     = fs.Int("concurrency", 0, "city experiment: add a concurrent-dispatch row per shard count with this many worker lanes (<=1 = sequential only)")
		plane     = fs.String("plane", "", "city experiment: control plane to drive — coordinator (default, in-process) or tcp (real sockets, binary wire codec)")
		strat     = fs.String("strategy", "", "restrict strategy-iterating experiments to one registry strategy ("+strings.Join(strategy.Names(), " ")+")")
		csvDir    = fs.String("csv", "", "also write each table as CSV into this directory")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: woltsim [flags] <experiment>\n\nexperiments: %s\n\nflags:\n",
			experimentList())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d", fs.NArg())
	}
	if *strat != "" {
		valid := false
		for _, name := range strategy.Names() {
			if name == *strat {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Errorf("unknown strategy %q (want one of: %s)",
				*strat, strings.Join(strategy.Names(), " "))
		}
	}
	// Ctrl-C / SIGTERM cancel the context, which every fan-out driver
	// checks before claiming more work — experiments stop promptly
	// mid-run instead of finishing their trial loops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiments.Options{
		Ctx:         ctx,
		Seed:        *seed,
		Trials:      *trials,
		Users:       *users,
		Extenders:   *extenders,
		MACDuration: *macDur,
		EmuDuration: *emuDur,
		Workers:     *workers,
		Strategy:    *strat,
		Concurrency: *lanes,
		Plane:       *plane,
	}

	name := fs.Arg(0)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	runExperiments := func() error {
		if name == "all" {
			for _, id := range experimentIDs() {
				if err := runOne(id, opts, *csvDir); err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
			}
			return nil
		}
		return runOne(name, opts, *csvDir)
	}
	if err := runExperiments(); err != nil {
		return err
	}
	return writeMemProfile(*memProf)
}

// writeMemProfile records a post-run heap profile (after a GC, so it
// shows live retention rather than transient garbage). An empty path is
// a no-op.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// runOne executes one experiment, prints its tables and optionally
// exports them as CSV.
func runOne(name string, opts experiments.Options, csvDir string) error {
	runner, ok := registry()[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", name, experimentList())
	}
	start := time.Now()
	result, err := runner(opts)
	if err != nil {
		return err
	}
	for _, tab := range result.Tables() {
		fmt.Println(tab.String())
	}
	if csvDir != "" {
		paths, err := export.WriteTables(filepath.Join(csvDir, name), result)
		if err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		for _, p := range paths {
			fmt.Printf("wrote %s\n", p)
		}
	}
	fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

type runnerFunc func(experiments.Options) (experiments.Tabler, error)

func registry() map[string]runnerFunc {
	wrap := func(f func(experiments.Options) (experiments.Tabler, error)) runnerFunc { return f }
	fig4 := wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig4(o) })
	fig6bc := wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig6bc(o) })
	return map[string]runnerFunc{
		"fig2a": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig2a(o) }),
		"fig2b": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig2b(o) }),
		"fig2c": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig2c(o) }),
		"fig3":  wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig3() }),
		// Fig 4a/4b/4c share one run; each id prints the full set.
		"fig4a": fig4,
		"fig4b": fig4,
		"fig4c": fig4,
		"fig5":  wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig5(o) }),
		"fig6a": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fig6a(o) }),
		// Fig 6b/6c share one dynamic run.
		"fig6b":    fig6bc,
		"fig6c":    fig6bc,
		"fairness": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Fairness(o) }),
		"nphard":   wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.NPHard(o) }),
		"gap":      wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Gap(o) }),
		"solve":    wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Solve(o) }),
		"anytime":  wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Anytime(o) }),
		"frontier": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Frontier(o) }),
		"sweep":    wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Sweep(o) }),
		"mobility": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Mobility(o) }),
		"channels": wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Channels(o) }),
		"verify":   wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Verify(o) }),
		"qos":      wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.QoS(o) }),
		"shard":    wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.Shard(o) }),
		"city":     wrap(func(o experiments.Options) (experiments.Tabler, error) { return experiments.City(o) }),
	}
}

// experimentIDs returns the canonical run order for "all" (deduplicating
// shared runs).
func experimentIDs() []string {
	return []string{
		"fig2a", "fig2b", "fig2c", "fig3", "fig4a", "fig5",
		"fig6a", "fig6b", "fairness", "nphard", "gap", "solve", "anytime", "frontier", "sweep", "mobility", "channels", "qos", "shard", "city",
	}
}

func experimentList() string {
	ids := make([]string, 0, len(registry())+1)
	for id := range registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += " "
		}
		out += id
	}
	return out + " all"
}
