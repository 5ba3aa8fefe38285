// Package core implements IVN's contribution: coherently-incoherent
// beamforming (CIB).
//
// CIB transmits the same command synchronously from N antennas (coherent
// communication) on N slightly different carrier frequencies (incoherent
// channel). The frequency offsets make the superposed envelope at any
// point in space sweep through constructive alignments over time, so the
// peak received amplitude approaches N× a single antenna — without any
// channel knowledge — and a battery-free sensor can harvest at the peaks
// even when the average power is below its threshold.
//
// This package provides the envelope mathematics (paper Eq. 5), the
// peak-power objective (Eq. 6), the query-flatness constraint (Eqs. 7–9),
// the constrained Monte-Carlo frequency optimizer (Eq. 10), the CIB
// transmitter built on internal/radio, and the §3.7 extensions (two-stage
// conduction-angle optimization, center-frequency hopping, multi-sensor
// Select addressing).
package core

import (
	"fmt"
	"math"

	"ivn/internal/phasor"
	"ivn/internal/pool"
	"ivn/internal/rng"
)

// Envelope evaluates Y(t) = |Σᵢ e^{j(2πΔfᵢt + βᵢ)}| (paper Eq. 5, after
// factoring out the common carrier). offsets and betas must have equal
// length; Envelope panics otherwise because the mismatch is always a
// programming error.
//
// Envelope is the naive (one Sincos per carrier) evaluation and serves as
// the golden reference for the phasor-recurrence series kernels below.
//ivn:hotpath
func Envelope(offsets, betas []float64, t float64) float64 {
	if len(offsets) != len(betas) {
		panic("core: offsets/betas length mismatch")
	}
	var re, im float64
	for i, df := range offsets {
		s, c := math.Sincos(2*math.Pi*df*t + betas[i])
		re += c
		im += s
	}
	return math.Hypot(re, im)
}

// phaseCoeffs fills a pooled complex scratch with the unit phasors
// e^{jβᵢ}; the caller must return it via pool.PutComplex128.
func phaseCoeffs(betas []float64) []complex128 {
	coeffs := pool.Complex128(len(betas))
	for i, b := range betas {
		s, c := math.Sincos(b)
		coeffs[i] = complex(c, s)
	}
	//ivn:allow pooldiscipline ownership transfers to the caller by documented contract; every caller Puts the slice
	return coeffs
}

// EnvelopeSeries samples Y(t) at n points over the half-open interval
// [0, period): t_k = period·k/n for k = 0..n−1, excluding t = period
// (which, for integer-offset plans over one period, duplicates t = 0 —
// the same convention baseline.PeakReceivedPower scans with). It reuses
// dst when it has capacity. The evaluation runs on the shared
// phasor-recurrence kernel with pooled scratch, so steady-state calls
// with a recycled dst do not allocate.
//ivn:hotpath
func EnvelopeSeries(offsets, betas []float64, period float64, n int, dst []float64) []float64 {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		//ivn:allow hotpath first-call convenience allocation; steady-state callers recycle dst's capacity
		dst = make([]float64, n)
	}
	coeffs := phaseCoeffs(betas)
	phasor.MagnitudeSeries(offsets, coeffs, 0, period/float64(n), n, dst)
	pool.PutComplex128(coeffs)
	return dst
}

// PeakEnvelope returns max over n samples of Y(t) for t ∈ [0, period)
// (half-open grid, as in EnvelopeSeries).
//ivn:hotpath
func PeakEnvelope(offsets, betas []float64, period float64, n int) float64 {
	if len(offsets) == 0 || n <= 0 {
		return 0
	}
	coeffs := phaseCoeffs(betas)
	p := phasor.PeakPower(offsets, coeffs, 0, period/float64(n), n)
	pool.PutComplex128(coeffs)
	return math.Sqrt(p)
}

// FractionAbove returns the fraction of time Y(t) exceeds level over one
// period — the conduction-angle proxy the §3.7 steady stage maximizes.
//ivn:hotpath
func FractionAbove(offsets, betas []float64, level, period float64, n int) float64 {
	if len(offsets) == 0 || n <= 0 {
		return 0
	}
	buf := pool.Float64(n)
	EnvelopeSeries(offsets, betas, period, n, buf)
	count := 0
	for _, v := range buf {
		if v > level {
			count++
		}
	}
	pool.PutFloat64(buf)
	return float64(count) / float64(n)
}

// drawBetas fills dst with uniform random phases; element 0 is pinned to 0
// because only phase *differences* matter (paper §3.6 observes the
// objective depends only on Δf and Δβ).
func drawBetas(dst []float64, r *rng.Rand) {
	for i := range dst {
		if i == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = r.Phase()
	}
}

// ForEach is the fan-out seam of the Monte-Carlo estimators: it runs
// fn(0..n-1), possibly concurrently, and returns the error of the
// lowest-indexed failure or its own (a cancelled run's context error).
// A nil ForEach runs the calls in order on the caller. core starts no
// goroutine itself; callers bind the seam to a bounded worker pool, and
// results never depend on whether or how they do.
type ForEach func(n int, fn func(i int) error) error

// drawScan is one estimator's per-draw scan: a pure function of the plan,
// one phase draw, the estimator's level and the samples per period.
type drawScan func(offsets, betas []float64, level float64, samples int) float64

// monteCarlo is one estimator call: its phase draws, laid out trial after
// trial in betas, and the per-trial values its scan writes to out.
type monteCarlo struct {
	offsets, betas, out []float64
	level               float64
	samples             int
	scan                drawScan
}

// trial scans draw t into out[t]. Trials write disjoint slots and share
// everything else read-only, so any number may run concurrently.
func (m monteCarlo) trial(t int) error {
	n := len(m.offsets)
	m.out[t] = m.scan(m.offsets, m.betas[t*n:(t+1)*n], m.level, m.samples)
	return nil
}

// runMonteCarlo is the estimators' one draw-and-scan loop. It draws
// len(out) phase vectors from r in trial order before any scan runs, so r
// ends where alternately drawing and scanning would leave it; runs scan on
// every draw through each; and leaves trial t's value in out[t]. Callers
// reduce out in trial order, so the result is bit-identical for a nil and
// a concurrent each.
func runMonteCarlo(offsets []float64, level float64, samples int, r *rng.Rand, each ForEach, scan drawScan, out []float64) error {
	n := len(offsets)
	betas := pool.Float64(len(out) * n)
	defer pool.PutFloat64(betas)
	for t := range out {
		drawBetas(betas[t*n:(t+1)*n], r)
	}
	// Only the fan-out branch binds mc into a func value (a heap copy), so
	// the nil-seam path allocates nothing.
	mc := monteCarlo{offsets: offsets, betas: betas, out: out, level: level, samples: samples, scan: scan}
	if each == nil {
		for t := range out {
			if err := mc.trial(t); err != nil {
				return err
			}
		}
		return nil
	}
	return each(len(out), mc.trial)
}

// meanOf runs scan over trials draws and returns the mean of the
// per-trial values, summed in trial order.
func meanOf(offsets []float64, level float64, trials, samples int, r *rng.Rand, each ForEach, scan drawScan) (float64, error) {
	vals := pool.Float64(trials)
	defer pool.PutFloat64(vals)
	if err := runMonteCarlo(offsets, level, samples, r, each, scan, vals); err != nil {
		return 0, err
	}
	var acc float64
	for _, v := range vals {
		acc += v
	}
	return acc / float64(trials), nil
}

// peakPower is PeakCDF's per-draw scan: max_t Y(t)² over one 1 s period.
func peakPower(offsets, betas []float64, _ float64, samples int) float64 {
	coeffs := phaseCoeffs(betas)
	p := phasor.PeakPower(offsets, coeffs, 0, 1.0/float64(samples), samples)
	pool.PutComplex128(coeffs)
	return p
}

// peak is ExpectedPeak's per-draw scan: max_t Y(t) over one 1 s period.
func peak(offsets, betas []float64, level float64, samples int) float64 {
	return math.Sqrt(peakPower(offsets, betas, level, samples))
}

// fractionAbove is ExpectedConductionFraction's per-draw scan.
func fractionAbove(offsets, betas []float64, level float64, samples int) float64 {
	return FractionAbove(offsets, betas, level, 1.0, samples)
}

// ExpectedPeak estimates E_β[max_t Y(t)] (the Eq. 6 objective) by Monte
// Carlo: trials random phase draws, each scanning samplesPerTrial points
// over one envelope period. The period is 1 s by the paper's integer-Δf
// convention. Deterministic for a given r state, whatever each is; the
// only error is each's.
func ExpectedPeak(offsets []float64, trials, samplesPerTrial int, r *rng.Rand, each ForEach) (float64, error) {
	if len(offsets) == 0 || trials <= 0 || samplesPerTrial <= 0 {
		return 0, nil
	}
	return meanOf(offsets, 0, trials, samplesPerTrial, r, each, peak)
}

// PeakCDF samples the distribution of per-channel-draw peak *power* gains
// (peak² — Fig. 6 plots power) for a frequency set: one sample per random
// β draw. The returned slice has trials entries.
func PeakCDF(offsets []float64, trials, samplesPerTrial int, r *rng.Rand, each ForEach) ([]float64, error) {
	out := make([]float64, trials)
	if err := runMonteCarlo(offsets, 0, samplesPerTrial, r, each, peakPower, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ExpectedConductionFraction estimates E_β[fraction of t with Y(t) > level].
// Note that this quantity is invariant under scaling all offsets by a
// common factor (it only rescales time), so it measures a plan's *pattern*
// quality; the duty-cycle trade of §3.7 shows up in dwell time instead.
func ExpectedConductionFraction(offsets []float64, level float64, trials, samplesPerTrial int, r *rng.Rand, each ForEach) (float64, error) {
	if len(offsets) == 0 || trials <= 0 {
		return 0, nil
	}
	return meanOf(offsets, level, trials, samplesPerTrial, r, each, fractionAbove)
}

// MaxDwellAbove returns the longest contiguous time (seconds, out of one
// 1 s period) the envelope stays above level for a given phase draw. The
// envelope is sampled on the same half-open grid as EnvelopeSeries
// (t ∈ [0, 1), samples points).
//ivn:hotpath
func MaxDwellAbove(offsets, betas []float64, level float64, samples int) float64 {
	if len(offsets) == 0 || samples <= 0 {
		return 0
	}
	buf := pool.Float64(samples)
	defer pool.PutFloat64(buf)
	EnvelopeSeries(offsets, betas, 1.0, samples, buf)
	dt := 1.0 / float64(samples)
	best, run := 0, 0
	// The envelope is 1-periodic; handle a run wrapping the period edge by
	// scanning two concatenated periods (capped at one full period).
	for pass := 0; pass < 2; pass++ {
		for _, v := range buf {
			if v > level {
				run++
				if run > best {
					best = run
				}
			} else {
				run = 0
			}
		}
	}
	if best > samples {
		best = samples
	}
	return float64(best) * dt
}

// ExpectedDwellTime estimates E_β[max contiguous dwell above level] — the
// §3.7 steady-stage objective. A sensor charging a storage capacitor needs
// *continuous* above-threshold intervals; once the discovery stage has
// established the attainable level, slower (smaller-Δf) plans hold the
// envelope above it for longer per burst.
func ExpectedDwellTime(offsets []float64, level float64, trials, samplesPerTrial int, r *rng.Rand, each ForEach) (float64, error) {
	if len(offsets) == 0 || trials <= 0 {
		return 0, nil
	}
	return meanOf(offsets, level, trials, samplesPerTrial, r, each, MaxDwellAbove)
}

// ValidateOffsets checks a CIB frequency plan: offset 0 present first,
// strictly increasing non-negative integers (the cyclic-operation
// constraint of §3.6 with T = 1 s).
func ValidateOffsets(offsets []float64) error {
	if len(offsets) == 0 {
		return fmt.Errorf("core: empty offset set")
	}
	if offsets[0] != 0 {
		return fmt.Errorf("core: first offset must be 0 (reference carrier), got %v", offsets[0])
	}
	for i, f := range offsets {
		//ivn:allow floatcmp exact integrality check via the Trunc identity; offsets are small integers, no rounding involved
		if f != math.Trunc(f) {
			return fmt.Errorf("core: offset %v at index %d is not an integer (violates T=1s cyclic constraint)", f, i)
		}
		if f < 0 {
			return fmt.Errorf("core: negative offset %v", f)
		}
		if i > 0 && f <= offsets[i-1] {
			return fmt.Errorf("core: offsets not strictly increasing at index %d", i)
		}
	}
	return nil
}

// PaperOffsets is the Δf set IVN's prototype uses (paper §5a): obtained
// from the one-time Monte-Carlo optimization, RMS ≈ 82 Hz, well inside the
// 199 Hz flatness limit for an 800 µs query.
func PaperOffsets() []float64 {
	return []float64{0, 7, 20, 49, 68, 73, 90, 113, 121, 137}
}
