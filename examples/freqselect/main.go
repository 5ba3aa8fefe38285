// Frequency selection: the §3.6 optimization as a library workflow. Shows
// why the Δf plan matters (a bad plan wastes most of the CIB gain), runs
// the constrained Monte-Carlo optimizer, and validates the flatness
// constraint against an actual Gen2 query.
package main

import (
	"fmt"
	"log"

	"ivn/internal/core"
	"ivn/internal/gen2"
	"ivn/internal/rng"
)

func main() {
	const n = 6
	limit, err := core.FlatnessLimit(core.DefaultFlatnessAlpha, core.DefaultQueryDuration)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constraint: RMS Δf <= %.1f Hz so an 800 µs query decodes (Eq. 9)\n\n", limit)

	// How much does selection matter? Compare three plans.
	eval := func(offsets []float64) float64 {
		v, err := core.ExpectedPeak(offsets, 64, 4096, rng.New(99), nil)
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	arithmetic := core.ArithmeticOffsets(n, 2)
	paper := core.PaperOffsets()[:n]
	plan, err := core.Optimize(n, core.DefaultOptimizerConfig(), rng.New(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s E[peak]/N = %.3f  (RMS %5.1f Hz)\n", fmt.Sprintf("arithmetic %v", arithmetic), eval(arithmetic)/n, core.RMSOffset(arithmetic))
	fmt.Printf("%-28s E[peak]/N = %.3f  (RMS %5.1f Hz)\n", fmt.Sprintf("paper prefix %v", paper), eval(paper)/n, core.RMSOffset(paper))
	fmt.Printf("%-28s E[peak]/N = %.3f  (RMS %5.1f Hz)\n\n", fmt.Sprintf("optimized %v", plan.Offsets), eval(plan.Offsets)/n, plan.RMS)

	// The flatness constraint is not hypothetical: verify the optimized
	// plan keeps a real Query's envelope decodable at a worst-case phase
	// alignment.
	pie := gen2.DefaultPIE(1e6)
	q := &gen2.Query{Q: 4}
	bits := q.AppendBits(nil)
	dur := pie.FrameDuration(bits, true)
	ok, err := core.SatisfiesFlatness(plan.Offsets, core.DefaultFlatnessAlpha, dur)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query duration %.0f µs → plan satisfies Eq. 9: %t\n", dur*1e6, ok)
	fmt.Printf("worst-case envelope drop over the query: %.1f%% (must stay under %.0f%%)\n",
		core.EnvelopeDropNearPeak(plan.Offsets, dur)*100, core.DefaultFlatnessAlpha*100)

	// The §3.7 two-stage extension: once the attenuation is known, switch
	// to a dwell-optimized plan that holds the envelope above threshold
	// for longer contiguous bursts.
	steady, err := core.OptimizeConductionAngle(n, 0.5, core.DefaultOptimizerConfig(), rng.New(2))
	if err != nil {
		log.Fatal(err)
	}
	level := 0.5 * float64(n)
	dDisc, err := core.ExpectedDwellTime(plan.Offsets, level, 64, 8192, rng.New(3), nil)
	if err != nil {
		log.Fatal(err)
	}
	dSteady, err := core.ExpectedDwellTime(steady.Offsets, level, 64, 8192, rng.New(3), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntwo-stage extension (threshold at 50%% of max peak):\n")
	fmt.Printf("  discovery plan dwell: %.2f ms per burst\n", dDisc*1e3)
	fmt.Printf("  steady plan %v dwell: %.2f ms per burst\n", steady.Offsets, dSteady*1e3)
}
