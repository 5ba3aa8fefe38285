package session

import (
	"fmt"
	"math"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// Channel is the fidelity seam of the inventory air interface: it decides
// what the reader's receive chain recovers from each slot, without the
// controller knowing whether waveforms were synthesized (the full-DSP
// path, ivn/internal/link.DSPChannel) or probabilities were drawn from
// the realized link budget (EventChannel). A nil Channel on the
// InventoryController is the historical ideal uplink: every singulated
// reply decodes exactly and collisions are never captured.
//
// Implementations must be pure functions of their own state, the decision
// arguments, and the rng stream they are handed, so that identical seeds
// reproduce identical inventories at any GOMAXPROCS and paired fault
// on/off comparisons stay aligned. The ChannelFault seam composes
// orthogonally: faults perturb what reaches the channel (truncated
// commands, dark tags, corrupted bits); the channel decides whether the
// surviving reply decodes.
type Channel interface {
	// DecodeReply reports whether the reader recovers a singulated
	// reply's exact payload bits. tagIndex identifies the responder
	// within the round's population, exchange labels the decode
	// ("rn16"/"epc"), and r is the round's stream — implementations draw
	// their noise (or probability) from it deterministically.
	DecodeReply(tagIndex int, reply gen2.Reply, exchange string, r *rng.Rand) (ChannelDecode, error)
	// Capture resolves a collided slot (the capture effect): when one
	// responder's backscatter dominates the rest enough for the reader
	// to lock onto it, the slot behaves as a single for that tag — its
	// RN16 is considered decoded (under the losers' interference) by the
	// time Capture returns a winner. responders are population indices
	// of the tags that replied, in ascending order; the slice is the
	// controller's scratch and must not be kept past the call. Returns the
	// winning index, or -1 for an unresolvable collision.
	Capture(responders []int, r *rng.Rand) int
	// ReceiveSeconds is the sim-clock time one uplink capture occupies
	// (the reader's coherent-averaging window); the trace clock advances
	// by it per decode.
	ReceiveSeconds() float64
}

// ChannelDecode is one reply capture's outcome at the channel.
type ChannelDecode struct {
	// OK reports whether the payload bits were recovered exactly.
	OK bool
	// Correlation is the (expected or measured) preamble correlation of
	// a successful decode, for the reply-decoded trace event.
	Correlation float64
}

// TagBudget is one tag's realized uplink budget — the event channel's
// per-tag calibration input, produced from link.ForTrial outputs by
// link.(*Link).EventBudget and perturbed per tag by population
// experiments (shadowing, model spread).
type TagBudget struct {
	// SNR is the post-averaging per-sample power SNR, linear — the same
	// a²·K/noise operand the reader's DecodableRN16 predicate thresholds.
	SNR float64
	// RSSI is the tag's backscatter signal power at the receiver in any
	// consistent relative unit (only ratios matter); it drives the
	// capture-effect dominance test and the interference term of a
	// captured decode.
	RSSI float64
}

// EventChannel is the calibrated event-level uplink: instead of
// synthesizing backscatter waveforms it converts each tag's realized
// link budget into a decode probability (DecodeProbability, calibrated
// against the DSP chain by test) and draws per-slot outcomes from the
// round's rng stream. This is the fidelity switch of ROADMAP item 2 —
// it frees inventory from the waveform-synthesis floor, so populations
// of hundreds to thousands of tags per reader session run in seconds.
type EventChannel struct {
	// Budgets holds one realized budget per tag, index-aligned with the
	// TagLogic slice handed to the controller.
	Budgets []TagBudget
	// SamplesPerHalfBit mirrors the reader's FM0 resolution (0 → 8).
	SamplesPerHalfBit int
	// Threshold is the preamble-correlation acceptance level (0 → 0.8).
	Threshold float64
	// CaptureRatio is the linear power ratio by which the strongest
	// collided backscatter must dominate the sum of the rest for the
	// reader to capture it; values below 1 are meaningless and 0
	// disables capture (every collision is unresolvable, matching the
	// DSP chain, which has no capture model). Literature values sit
	// around 2–4 (3–6 dB).
	CaptureRatio float64
	// DecodeSeconds is the sim-clock receive time per capture
	// (0 → 32 s: the default 32 coherent-averaging periods of 1 s each).
	DecodeSeconds float64
}

// rn16PayloadBits is the backscattered RN16 length; collisions only ever
// involve RN16 replies (Query/QueryRep/QueryAdjust slots), so a captured
// decode is always this long.
const rn16PayloadBits = 16

func (c *EventChannel) samplesPerHalfBit() int {
	if c.SamplesPerHalfBit == 0 {
		return 8
	}
	return c.SamplesPerHalfBit
}

func (c *EventChannel) threshold() float64 {
	if c.Threshold == 0 {
		return 0.8
	}
	return c.Threshold
}

// ReceiveSeconds implements Channel.
func (c *EventChannel) ReceiveSeconds() float64 {
	if c.DecodeSeconds == 0 {
		return 32
	}
	return c.DecodeSeconds
}

// DecodeReply implements Channel: one Bernoulli draw at the tag's
// calibrated decode probability for this payload length.
func (c *EventChannel) DecodeReply(tagIndex int, reply gen2.Reply, exchange string, r *rng.Rand) (ChannelDecode, error) {
	if tagIndex < 0 || tagIndex >= len(c.Budgets) {
		return ChannelDecode{}, fmt.Errorf("session: tag index %d outside budget table (%d tags)", tagIndex, len(c.Budgets))
	}
	b := c.Budgets[tagIndex]
	p := DecodeProbability(b.SNR, len(reply.Bits), c.samplesPerHalfBit(), c.threshold())
	dec := ChannelDecode{OK: r.Float64() < p}
	if dec.OK {
		dec.Correlation = expectedCorrelation(b.SNR)
	}
	return dec, nil
}

// Capture implements Channel: a dominance test on the responders' RSSIs
// followed by an interference-degraded RN16 decode draw for the winner.
// The losers' backscatter raises the winner's effective noise floor, so
// a barely-dominant tag can still fail to decode.
//
//ivn:hotpath
func (c *EventChannel) Capture(responders []int, r *rng.Rand) int {
	if c.CaptureRatio <= 0 || len(responders) < 2 {
		return -1
	}
	best, bestPow, rest := -1, 0.0, 0.0
	for _, ti := range responders {
		if ti < 0 || ti >= len(c.Budgets) {
			return -1
		}
		p := c.Budgets[ti].RSSI
		if p > bestPow {
			if best >= 0 {
				rest += bestPow
			}
			bestPow, best = p, ti
		} else {
			rest += p
		}
	}
	if best < 0 || bestPow <= 0 || bestPow < c.CaptureRatio*rest {
		return -1
	}
	b := c.Budgets[best]
	snr := b.SNR
	if snr > 0 && rest > 0 {
		// Interference-limited budget: N0 = RSSI/SNR is the tag's
		// noise-equivalent power, and the losers add straight on top.
		snr = b.RSSI / (b.RSSI/b.SNR + rest)
	}
	p := DecodeProbability(snr, rn16PayloadBits, c.samplesPerHalfBit(), c.threshold())
	if r.Float64() < p {
		return best
	}
	return -1
}

// DecodeProbability maps a post-averaging per-sample power SNR (linear,
// the a²·K/noise operand of reader.DecodableRN16) to the probability
// that a single capture decodes: the FM0 preamble correlation clears
// threshold AND every payload bit is recovered. It is the analytic image
// of reader.DecodeUplink's chain — derotated real-part noise
// σ = sqrt(noise/2K) against half-swing s, so s/σ = sqrt(2·snr):
//
//   - preamble: the normalized correlation over the L = 12·sphb preamble
//     samples concentrates at ρ₀ = s/√(s²+σ²) with delta-method spread
//     (1−ρ₀²)/√L, so P(ρ̂ ≥ θ) = Φ((ρ₀−θ)·√L/(1−ρ₀²));
//   - payload: a bit errs when exactly one of its two half-bit means
//     flips sign, q = Q(s·√sphb/σ), so all nbits survive with
//     (1−2q(1−q))^nbits.
//
// The product is calibrated against Monte-Carlo DecodeUplink rates by
// TestDecodeProbabilityMatchesDSP in ivn/internal/link; see corrBias and
// spreadScale.
//
//ivn:hotpath
func DecodeProbability(snr float64, nbits, samplesPerHalfBit int, threshold float64) float64 {
	if snr <= 0 || samplesPerHalfBit < 1 || nbits < 0 {
		return 0
	}
	s := math.Sqrt(2 * snr) // per-sample amplitude ratio s/σ
	q := gaussQ(s * math.Sqrt(float64(samplesPerHalfBit)))
	pPayload := math.Pow(1-2*q*(1-q), float64(nbits))
	rho := s / math.Sqrt(1+s*s)
	spread := 1 - rho*rho
	if spread <= 0 {
		return pPayload
	}
	l := float64(len(gen2.FM0PreambleHalfBits) * samplesPerHalfBit)
	z := (rho + corrBias - threshold) * math.Sqrt(l) / (spreadScale * spread)
	return gaussPhi(z) * pPayload
}

// Calibration constants fitted against the DSP chain's Monte-Carlo
// decode rates (3000 draws per SNR point at the default operating
// point): the FM0 decoder searches both polarities and the best frame
// alignment, which biases the realized preamble correlation slightly
// above ρ₀ and concentrates it tighter than the raw delta-method
// spread. With these, analytic and Monte-Carlo rates agree within ≈0.02
// across the waterfall.
const (
	corrBias    = 0.003
	spreadScale = 0.86
)

// expectedCorrelation is the preamble correlation a decode at this SNR
// concentrates around — the Value reported on reply-decoded events.
func expectedCorrelation(snr float64) float64 {
	if snr <= 0 {
		return 0
	}
	s2 := 2 * snr
	return math.Sqrt(s2 / (1 + s2))
}

// gaussPhi is the standard normal CDF.
func gaussPhi(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// gaussQ is the standard normal tail probability.
func gaussQ(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }
