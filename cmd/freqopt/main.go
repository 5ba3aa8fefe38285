// Command freqopt runs IVN's one-time Monte-Carlo frequency-selection
// optimization (paper §3.6, Eq. 10): it searches for the integer Δf set
// that maximizes the expected CIB peak under the query-flatness
// constraint, and prints the plan alongside the paper's published set.
//
// Usage:
//
//	freqopt -n 10 [-seed 1] [-alpha 0.5] [-dt 800e-6] [-trials 48] [-restarts 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ivn/internal/core"
	"ivn/internal/engine"
	"ivn/internal/rng"
)

func main() {
	var (
		n        = flag.Int("n", 10, "number of carriers (antennas)")
		seed     = flag.Uint64("seed", 1, "random seed")
		alpha    = flag.Float64("alpha", core.DefaultFlatnessAlpha, "envelope fluctuation bound α")
		dt       = flag.Float64("dt", core.DefaultQueryDuration, "command duration Δt in seconds")
		trials   = flag.Int("trials", 0, "Monte-Carlo draws per candidate (0 = default)")
		restarts = flag.Int("restarts", 0, "search restarts (0 = default)")
		steady   = flag.Float64("steady", 0, "when > 0, also optimize the §3.7 steady stage for this threshold fraction ρ")
	)
	flag.Parse()

	cfg := core.DefaultOptimizerConfig()
	cfg.ForEach = func(n int, fn func(i int) error) error {
		return engine.ForEachCtx(context.Background(), engine.Limits{}, n, fn)
	}
	cfg.Alpha = *alpha
	cfg.CommandDuration = *dt
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *restarts > 0 {
		cfg.Restarts = *restarts
	}

	limit, err := core.FlatnessLimit(cfg.Alpha, cfg.CommandDuration)
	if err != nil {
		fmt.Fprintf(os.Stderr, "freqopt: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("flatness limit: RMS Δf <= %.1f Hz (α=%.2f, Δt=%.0f µs)\n",
		limit, cfg.Alpha, cfg.CommandDuration*1e6)

	r := rng.New(*seed)
	plan, err := core.Optimize(*n, cfg, r.Split("discovery"))
	check(err)
	fmt.Printf("discovery plan: %s\n", plan)

	if *steady > 0 {
		sp, err := core.OptimizeConductionAngle(*n, *steady, cfg, r.Split("steady"))
		check(err)
		dwell, err := core.ExpectedDwellTime(sp.Offsets, *steady*float64(*n), 60, 8192, rng.New(*seed+1), cfg.ForEach)
		check(err)
		fmt.Printf("steady plan (ρ=%.2f): offsets %v, E[dwell] %.2f ms\n", *steady, sp.Offsets, dwell*1e3)
	}

	paper := core.PaperOffsets()
	if *n <= len(paper) {
		p := paper[:*n]
		score, err := core.ExpectedPeak(p, cfg.Trials, cfg.SamplesPerTrial, rng.New(*seed+2), cfg.ForEach)
		check(err)
		fmt.Printf("paper plan %v: E[peak]/N = %.3f, RMS = %.1f Hz\n",
			p, score/float64(*n), core.RMSOffset(p))
	}
	if bk, err := core.BestKnownPlan(*n); err == nil {
		score, err := core.ExpectedPeak(bk, cfg.Trials, cfg.SamplesPerTrial, rng.New(*seed+3), cfg.ForEach)
		check(err)
		fmt.Printf("best-known plan %v: E[peak]/N = %.3f, RMS = %.1f Hz\n",
			bk, score/float64(*n), core.RMSOffset(bk))
	}
}

// check exits with status 1 on a failed search or estimate.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "freqopt: %v\n", err)
		os.Exit(1)
	}
}
