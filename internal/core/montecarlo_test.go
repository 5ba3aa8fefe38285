package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/rng"
)

// serial unwraps the result of an estimator or optimizer run with a nil
// ForEach, which never fails.
func serial[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// pooled fans the scans out over the engine's bounded worker pool.
func pooled(n int, fn func(i int) error) error {
	return engine.ForEachCtx(context.Background(), engine.Limits{MaxParallel: 4}, n, fn)
}

// seamCase runs one estimator or optimizer on a stream and a seam.
type seamCase struct {
	name string
	run  func(r *rng.Rand, each ForEach) (any, error)
}

// seamCases covers every estimator and optimizer.
func seamCases() []seamCase {
	offsets := PaperOffsets()[:5]
	cfg := func(each ForEach) OptimizerConfig {
		c := fastCfg()
		c.ForEach = each
		return c
	}
	return []seamCase{
		{"ExpectedPeak", func(r *rng.Rand, each ForEach) (any, error) {
			return ExpectedPeak(offsets, 37, 1024, r, each)
		}},
		{"PeakCDF", func(r *rng.Rand, each ForEach) (any, error) {
			return PeakCDF(offsets, 37, 1024, r, each)
		}},
		{"ExpectedConductionFraction", func(r *rng.Rand, each ForEach) (any, error) {
			return ExpectedConductionFraction(offsets, 2.5, 37, 1024, r, each)
		}},
		{"ExpectedDwellTime", func(r *rng.Rand, each ForEach) (any, error) {
			return ExpectedDwellTime(offsets, 2.5, 37, 1024, r, each)
		}},
		{"Optimize", func(r *rng.Rand, each ForEach) (any, error) {
			return Optimize(5, cfg(each), r)
		}},
		{"OptimizeConductionAngle", func(r *rng.Rand, each ForEach) (any, error) {
			return OptimizeConductionAngle(5, 0.45, cfg(each), r)
		}},
		{"WorstOf", func(r *rng.Rand, each ForEach) (any, error) {
			return WorstOf(5, 6, cfg(each), r)
		}},
	}
}

// TestForEachSeamIsExact pins the fan-out contract: a concurrent seam
// returns the same bits as a nil one — every float equal under ==, equal
// plans and CDF samples — and leaves the caller's stream in the same
// state.
func TestForEachSeamIsExact(t *testing.T) {
	for _, c := range seamCases() {
		rs, rp := rng.New(7), rng.New(7)
		want := serial(c.run(rs, nil))
		got, err := c.run(rp, pooled)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pooled %v, serial %v", c.name, got, want)
		}
		if a, b := rp.Uint64(), rs.Uint64(); a != b {
			t.Errorf("%s: stream diverged after the call: next draw %x, serial %x", c.name, a, b)
		}
	}
}

// TestMonteCarloMatchesAlternatingLoop checks the up-front draws against
// the loop they replaced, which drew one trial's phases and scanned them
// before drawing the next: same values under ==, same stream state.
func TestMonteCarloMatchesAlternatingLoop(t *testing.T) {
	offsets := PaperOffsets()[:6]
	const trials, samples, level = 23, 1024, 3.0
	reference := func(r *rng.Rand, scan drawScan) []float64 {
		betas := make([]float64, len(offsets))
		out := make([]float64, trials)
		for i := range out {
			drawBetas(betas, r)
			out[i] = scan(offsets, betas, level, samples)
		}
		return out
	}
	mean := func(v []float64) float64 {
		var acc float64
		for _, x := range v {
			acc += x
		}
		return acc / float64(len(v))
	}
	for _, c := range []struct {
		name string
		scan drawScan
		run  func(r *rng.Rand) (any, error)
		want func(vals []float64) any
	}{
		{"ExpectedPeak", peak,
			func(r *rng.Rand) (any, error) { return ExpectedPeak(offsets, trials, samples, r, nil) },
			func(v []float64) any { return mean(v) }},
		{"PeakCDF", peakPower,
			func(r *rng.Rand) (any, error) { return PeakCDF(offsets, trials, samples, r, nil) },
			func(v []float64) any { return v }},
		{"ExpectedConductionFraction", fractionAbove,
			func(r *rng.Rand) (any, error) {
				return ExpectedConductionFraction(offsets, level, trials, samples, r, nil)
			},
			func(v []float64) any { return mean(v) }},
		{"ExpectedDwellTime", MaxDwellAbove,
			func(r *rng.Rand) (any, error) { return ExpectedDwellTime(offsets, level, trials, samples, r, nil) },
			func(v []float64) any { return mean(v) }},
	} {
		rr, rm := rng.New(3), rng.New(3)
		want := c.want(reference(rr, c.scan))
		if got := serial(c.run(rm)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, alternating loop %v", c.name, got, want)
		}
		if a, b := rm.Uint64(), rr.Uint64(); a != b {
			t.Errorf("%s: stream state differs from the alternating loop", c.name)
		}
	}
	// ExpectedPeak's scan is PeakEnvelope over one period.
	betas := make([]float64, len(offsets))
	drawBetas(betas, rng.New(5))
	if p, e := peak(offsets, betas, 0, samples), PeakEnvelope(offsets, betas, 1, samples); p != e {
		t.Errorf("peak scan %v, PeakEnvelope %v", p, e)
	}
}

// TestSeamErrorEndsTheSearch: the seam's error — a cancelled run's
// context error — comes back from every estimator and optimizer.
func TestSeamErrorEndsTheSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := func(n int, fn func(i int) error) error {
		return engine.ForEachCtx(ctx, engine.Limits{}, n, fn)
	}
	for _, c := range seamCases() {
		if _, err := c.run(rng.New(1), cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", c.name, err)
		}
	}
}

// TestEstimatorsAllocateNothing: with a nil seam the draws and per-trial
// values come from internal/pool, so steady-state estimates allocate
// nothing.
func TestEstimatorsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; budget holds without -race")
	}
	offsets := PaperOffsets()[:5]
	r := rng.New(1)
	for name, est := range map[string]func(){
		"ExpectedPeak":      func() { serial(ExpectedPeak(offsets, 48, 2048, r, nil)) },
		"ExpectedDwellTime": func() { serial(ExpectedDwellTime(offsets, 2.25, 48, 2048, r, nil)) },
	} {
		est() // warm the pools
		if a := testing.AllocsPerRun(20, est); a != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, a)
		}
	}
}
