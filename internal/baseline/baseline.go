// Package baseline implements the comparators IVN is evaluated against:
//
//   - SingleAntenna: one transmit chain (the denominator of every "power
//     gain" number in the paper).
//   - BlindArray: the paper's "10-antenna transmitter" — N chains on the
//     SAME carrier frequency with unknown random phases. Its gain over a
//     single antenna comes entirely from radiating N× total power; at any
//     given point the phasors may also cancel.
//   - OracleMRT: coherent maximum-ratio beamforming with perfect channel
//     knowledge — the upper bound that is unobtainable for battery-free
//     sensors (it needs channel feedback) but shows what CIB is giving up.
//   - PhasedArray: angle-steered precoding assuming free-space geometry;
//     correct in line-of-sight air, wrong through inhomogeneous tissue
//     (footnote 5 of the paper).
package baseline

import (
	"fmt"
	"math"
	"math/cmplx"

	"ivn/internal/phasor"
	"ivn/internal/pool"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

// SingleAntenna returns the one-chain carrier set at freq with the given
// emitted amplitude (√W).
func SingleAntenna(freq, amplitude float64) []radio.Carrier {
	return []radio.Carrier{{Freq: freq, Phase: 0, Amplitude: amplitude}}
}

// BlindArray returns n same-frequency carriers with independent random
// phases, each emitting perAntennaAmplitude. This is the optimized
// multi-antenna baseline of §6.1.1(c): it cannot focus because it has no
// channel knowledge and — unlike CIB — no frequency diversity to scan
// alignments over time.
func BlindArray(n int, freq, perAntennaAmplitude float64, r *rng.Rand) ([]radio.Carrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n=%d", n)
	}
	return BlindArrayInto(make([]radio.Carrier, 0, n), n, freq, perAntennaAmplitude, r)
}

// BlindArrayInto appends the blind-array carrier set to dst and returns
// it, drawing the same phase sequence as BlindArray.
func BlindArrayInto(dst []radio.Carrier, n int, freq, perAntennaAmplitude float64, r *rng.Rand) ([]radio.Carrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n=%d", n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, radio.Carrier{Freq: freq, Phase: r.Phase(), Amplitude: perAntennaAmplitude})
	}
	return dst, nil
}

// OracleMRT returns n same-frequency carriers whose phases pre-rotate
// each channel's phase away (maximum-ratio transmission), given perfect
// knowledge of the channel coefficients. All phasors then add coherently
// at the sensor: the unreachable ideal for battery-free devices.
func OracleMRT(freq, perAntennaAmplitude float64, chans []complex128) ([]radio.Carrier, error) {
	return OracleMRTInto(make([]radio.Carrier, 0, len(chans)), freq, perAntennaAmplitude, chans)
}

// OracleMRTInto appends the maximum-ratio carrier set to dst and returns
// it.
func OracleMRTInto(dst []radio.Carrier, freq, perAntennaAmplitude float64, chans []complex128) ([]radio.Carrier, error) {
	if len(chans) == 0 {
		return nil, fmt.Errorf("baseline: no channels")
	}
	for _, h := range chans {
		dst = append(dst, radio.Carrier{
			Freq:      freq,
			Phase:     -cmplx.Phase(h),
			Amplitude: perAntennaAmplitude,
		})
	}
	return dst, nil
}

// PhasedArray returns carriers precoded to steer a free-space beam toward
// a target at the given angle, for antennas spaced `spacing` meters apart
// along a line. The precoding assumes air propagation: through layered
// tissue the true phases differ and the beam degrades — exactly why
// angle-steering fails for in-vivo sensors (§7, "Antenna-array
// beamforming... becomes intractable with multi-layer tissues").
func PhasedArray(n int, freq, perAntennaAmplitude, spacing, steerAngle float64) ([]radio.Carrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n=%d", n)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("baseline: spacing %v <= 0", spacing)
	}
	lambda := 299792458.0 / freq
	out := make([]radio.Carrier, n)
	for i := range out {
		// Progressive phase to align path lengths toward steerAngle.
		ph := 2 * math.Pi * float64(i) * spacing * math.Sin(steerAngle) / lambda
		out[i] = radio.Carrier{Freq: freq, Phase: ph, Amplitude: perAntennaAmplitude}
	}
	return out, nil
}

// scanSpec validates a (carriers, chans, duration, samples) scan request.
// It returns done=true when the caller should return immediately with the
// given power/err (empty carrier set, or an invalid spec).
func scanSpec(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (power float64, done bool, err error) {
	if len(carriers) != len(chans) {
		//ivn:allow hotpath cold validation exit; a mismatched scan spec never reaches the steady-state loop
		return 0, true, fmt.Errorf("baseline: %d carriers, %d channels", len(carriers), len(chans))
	}
	if len(carriers) == 0 {
		return 0, true, nil
	}
	if duration <= 0 || samples < 1 {
		//ivn:allow hotpath cold validation exit; an invalid scan spec never reaches the steady-state loop
		return 0, true, fmt.Errorf("baseline: bad scan spec duration=%v samples=%d", duration, samples)
	}
	return 0, false, nil
}

// carrierPhasors fills pooled scratch with the kernel representation of a
// carrier set seen through per-carrier channels: baseband frequencies
// relative to the first carrier, and complex coefficients
// Aᵢ·e^{jφᵢ}·hᵢ. Callers must release both slices via pool.PutFloat64 /
// pool.PutComplex128.
func carrierPhasors(carriers []radio.Carrier, chans []complex128) (freqs []float64, coeffs []complex128) {
	f0 := carriers[0].Freq
	freqs = pool.Float64(len(carriers))
	coeffs = pool.Complex128(len(carriers))
	for i, c := range carriers {
		freqs[i] = c.Freq - f0
		s, cs := math.Sincos(c.Phase)
		coeffs[i] = complex(c.Amplitude*cs, c.Amplitude*s) * chans[i]
	}
	//ivn:allow pooldiscipline ownership transfers to the caller by documented contract; every caller Puts both slices
	return freqs, coeffs
}

// PeakReceivedPower returns the maximum instantaneous power of the
// superposition of carriers through the given per-carrier channels,
// scanned over the half-open interval [0, duration) at `samples` equally
// spaced points t_k = duration·k/samples, k = 0..samples−1; the endpoint
// t = duration is excluded (for a full beat period it duplicates t = 0).
// For same-frequency carrier sets the envelope is constant and one sample
// suffices; for CIB sets the scan finds the beat maximum. This is the
// quantity the paper's "peak power" measurements capture (§6.1.1).
//
// The scan runs on the shared phasor-recurrence kernel
// (internal/phasor); kernel_test.go keeps the direct per-sample
// evaluation as the golden reference.
//ivn:hotpath
func PeakReceivedPower(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	freqs, coeffs := carrierPhasors(carriers, chans)
	best := phasor.PeakPower(freqs, coeffs, 0, duration/float64(samples), samples)
	pool.PutComplex128(coeffs)
	pool.PutFloat64(freqs)
	return best, nil
}

// PeakReceivedPowerRefined is PeakReceivedPower with a coarse-to-fine
// scan: a coarse pass over coarseSamples points locates the top beat
// cells, then only their neighborhoods are rescanned at the full
// `samples` resolution. The result is always the power at one of the
// fine-grid sample points of PeakReceivedPower's half-open [0, duration)
// grid, and matches the full scan whenever the coarse grid still
// oversamples the envelope (true for flatness-constrained CIB plans,
// whose beat bandwidth is ≤ a few hundred Hz, against coarse grids of
// thousands of points per second). samples must be a positive multiple of
// coarseSamples for refinement to engage; otherwise the full scan runs.
//ivn:hotpath
func PeakReceivedPowerRefined(carriers []radio.Carrier, chans []complex128, duration float64, coarseSamples, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	freqs, coeffs := carrierPhasors(carriers, chans)
	best := phasor.PeakPowerRefined(freqs, coeffs, duration, coarseSamples, samples)
	pool.PutComplex128(coeffs)
	pool.PutFloat64(freqs)
	return best, nil
}

// AverageReceivedPower returns the time-averaged received power of the
// superposition over the same half-open [0, duration) grid as
// PeakReceivedPower — equal for CIB and a blind array with the same
// channels and per-antenna power ("the average received energy is the
// same across both encoding schemes", §3.4).
//ivn:hotpath
func AverageReceivedPower(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	freqs, coeffs := carrierPhasors(carriers, chans)
	re := pool.Float64(samples)
	im := pool.Float64(samples)
	phasor.SumSeries(freqs, coeffs, 0, duration/float64(samples), samples, re, im)
	var acc float64
	for k := 0; k < samples; k++ {
		acc += re[k]*re[k] + im[k]*im[k]
	}
	pool.PutFloat64(im)
	pool.PutFloat64(re)
	pool.PutComplex128(coeffs)
	pool.PutFloat64(freqs)
	return acc / float64(samples), nil
}
