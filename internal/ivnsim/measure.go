package ivnsim

import (
	"context"
	"fmt"
	"math"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/engine"
	"ivn/internal/gen2"
	"ivn/internal/link"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// GainSample is one trial's peak received powers (isotropic watts at the
// sensor position) under each transmission scheme.
type GainSample struct {
	// CIB is the coherently-incoherent beamformer's envelope peak.
	CIB float64
	// Single is one antenna of the same array (the paper's denominator).
	Single float64
	// Blind is the N-antenna same-frequency baseline.
	Blind float64
	// MRT is oracle maximum-ratio transmission (perfect channel
	// knowledge) — the unreachable coherent upper bound.
	MRT float64
}

// MeasureGains realizes one placement of sc with n antennas and measures
// the four schemes against identical channels.
func MeasureGains(sc scenario.Scenario, n int, r *rng.Rand) (GainSample, error) {
	p, err := sc.Realize(n, r)
	if err != nil {
		return GainSample{}, err
	}
	return measureGainsAt(p, n, nil, r)
}

func measureGainsAt(p *scenario.Placement, n int, tr *session.Trace, r *rng.Rand) (GainSample, error) {
	g := p.Geometry()
	chans := link.DownlinkCoeffs(p, g.CIBFreq)
	amp := link.ChainAmplitude()

	var out GainSample

	// CIB: offset carriers with fresh random PLL phases.
	cfg := core.DefaultConfig()
	cfg.Antennas = n
	cfg.CenterFreq = g.CIBFreq
	bf, err := core.New(cfg, r.Split("cib"))
	if err != nil {
		return out, err
	}
	out.CIB, err = link.PeakDownlink(bf, chans)
	if err != nil {
		return out, err
	}
	if tr != nil {
		// Gain trials realize the CIB downlink without a full Link (no
		// reader leg); report it with the same event the link layer emits.
		tr.Emit(session.Event{Kind: session.EvLinkRealized, Value: 10*math.Log10(out.CIB) + 30})
	}

	// Single antenna: chain 0 alone.
	single := baseline.SingleAntenna(g.CIBFreq, amp)
	out.Single, err = baseline.PeakReceivedPower(single, chans[:1], link.ScanDuration, 1)
	if err != nil {
		return out, err
	}

	// Blind same-frequency array.
	blind, err := baseline.BlindArray(n, g.CIBFreq, amp, r.Split("blind"))
	if err != nil {
		return out, err
	}
	out.Blind, err = baseline.PeakReceivedPower(blind, chans, link.ScanDuration, 1)
	if err != nil {
		return out, err
	}

	// Oracle MRT.
	mrt, err := baseline.OracleMRT(g.CIBFreq, amp, chans)
	if err != nil {
		return out, err
	}
	out.MRT, err = baseline.PeakReceivedPower(mrt, chans, link.ScanDuration, 1)
	if err != nil {
		return out, err
	}
	return out, nil
}

// RunGainTrialsCtx measures trials independent placements on the
// engine's bounded scheduler under a cancellation context and per-run
// limits, and returns the samples in trial order (deterministic
// regardless of scheduling). With a non-nil tlog, trial i records under
// the span "<prefix>/NNNN"; a nil log draws the same streams and returns
// identical samples. Trials run on the batched scratch path: per-worker
// gain kits absorb the per-trial allocations.
func RunGainTrialsCtx(ctx context.Context, lim engine.Limits, sc scenario.Scenario, n, trials int, seed uint64, tlog *session.TraceLog, prefix string) ([]GainSample, error) {
	s := engine.NewScratches(newGainKit)
	return engine.TrialsScratchCtx(ctx, lim, seed, "gain-trial", trials, s, func(i int, scratch any, r *rng.Rand) (GainSample, error) {
		var tr *session.Trace
		if tlog != nil {
			var commit func()
			tr, commit = tlog.Span(fmt.Sprintf("%s/%04d", prefix, i))
			defer commit()
		}
		return measureGainsScratch(scratch.(*gainKit), sc, n, tr, r)
	})
}

// CommTrial is one end-to-end communication attempt: power-up via CIB,
// then RN16 decode via the out-of-band reader.
type CommTrial struct {
	// PeakPower is the CIB envelope peak at the sensor (isotropic watts).
	PeakPower float64
	// Powered reports whether the tag reached its rail.
	Powered bool
	// Decoded reports whether the reader recovered the RN16.
	Decoded bool
	// Correlation is the preamble correlation of the waveform decode (0
	// when the budget path was used or decoding failed early).
	Correlation float64
}

// CommOptions tunes a communication trial.
type CommOptions struct {
	// Waveform switches from the fast link-budget uplink check to full
	// waveform synthesis and FM0 correlation decoding.
	Waveform bool
	// Trace, when non-nil, observes the trial as a typed event stream on
	// the simulated air clock. Nil is free.
	Trace *session.Trace
	// DecodeFault corrupts waveform captures (reader seam of the fault
	// layer); with Retries it exercises the bounded capture-retry path.
	// Leave both zero for the historical single-capture decode (the
	// retry path draws its noise from a different deterministic stream).
	DecodeFault reader.DecodeFault
	// Retries is the extra capture budget when DecodeFault fires.
	Retries int
}

// faultAware reports whether the trial must route decodes through the
// capture-retry path.
func (o CommOptions) faultAware() bool { return o.DecodeFault != nil || o.Retries > 0 }

// defaultEPC is the EPC programmed into every simulated tag. Shared
// safely across trials: gen2.NewTagLogic copies the bytes it is given.
var defaultEPC = []byte{0xE2, 0x00, 0x12, 0x34}

// RunCommTrial realizes a placement and attempts a full power-up +
// inventory exchange with the given tag model.
func RunCommTrial(sc scenario.Scenario, n int, model tag.Model, opts CommOptions, r *rng.Rand) (CommTrial, error) {
	p, err := sc.Realize(n, r)
	if err != nil {
		return CommTrial{}, err
	}
	return runCommAt(p, n, model, opts, r)
}

func runCommAt(p *scenario.Placement, n int, model tag.Model, opts CommOptions, r *rng.Rand) (CommTrial, error) {
	// Downlink power delivery at the placement's own geometry.
	lk, err := link.ForTrial(p, n, opts.Trace, r)
	if err != nil {
		return CommTrial{}, err
	}
	return commExchangeAt(lk, r.Split("tag"), model, opts, r)
}

// commExchangeAt runs the power-up + inventory exchange over an already
// realized link. tagRand seeds the tag's RN16 stream; it must stay valid
// for the whole exchange (gen2.TagLogic keeps the pointer and draws
// later), which is why the scratch path hands in a persistent kit field.
func commExchangeAt(lk *link.Link, tagRand *rng.Rand, model tag.Model, opts CommOptions, r *rng.Rand) (CommTrial, error) {
	var res CommTrial
	res.PeakPower = lk.PeakPower()

	tg, err := tag.New(model, defaultEPC, tagRand)
	if err != nil {
		return res, err
	}
	x := session.Exchange{Link: lk, Trace: opts.Trace}
	res.Powered = x.PowerUp(tg, res.PeakPower)
	if !res.Powered {
		return res, nil
	}

	// Inventory: the synchronized Query arrives intact by construction
	// (the flatness constraint is enforced at TransmitCommand); drive the
	// state machine to an RN16 reply.
	reply, err := x.Query(tg, &gen2.Query{Q: 0, Session: gen2.S0})
	if err != nil {
		return res, fmt.Errorf("ivnsim: downlink: %w", err)
	}
	if reply.Kind != gen2.ReplyRN16 {
		return res, nil
	}

	// Uplink through the out-of-band reader; subject motion dephases the
	// averaged periods.
	if opts.Waveform {
		var dec session.Decode
		var ok bool
		if opts.faultAware() {
			dec, ok, err = lk.DecodeWithRetry(tg, reply, 0, opts.Retries, opts.DecodeFault, "uplink", r)
		} else {
			dec, ok, err = lk.Decode(tg, reply, "uplink", r)
		}
		if err != nil {
			return res, err
		}
		if ok {
			res.Decoded = true
			res.Correlation = dec.Correlation
		}
		return res, nil
	}
	res.Decoded = lk.DecodableRN16(model)
	return res, nil
}

// MaxOperatingDistanceCtx finds the largest distance at which
// communication succeeds, via bisection over mk(distance) scenarios.
// Success at a distance means at least successNeeded of trialsPerPoint
// trials complete the power-up + decode exchange. Returns 0 when even
// the minimum distance fails. Each probe's trial loop runs under lim and
// checks ctx between trials, so a cancelled bisection returns promptly.
func MaxOperatingDistanceCtx(ctx context.Context, lim engine.Limits, mk func(d float64) scenario.Scenario, n int, model tag.Model, lo, hi float64, trialsPerPoint, successNeeded int, seed uint64) (float64, error) {
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("ivnsim: bad search interval [%v, %v]", lo, hi)
	}
	if trialsPerPoint < 1 || successNeeded < 1 || successNeeded > trialsPerPoint {
		return 0, fmt.Errorf("ivnsim: bad success spec %d/%d", successNeeded, trialsPerPoint)
	}
	parent := rng.New(seed)
	// Per-worker comm kits and the outcome buffer persist across the whole
	// bisection — every probe reuses them.
	scratches := engine.NewScratches(newCommKit)
	good := make([]bool, trialsPerPoint)
	ok := func(d float64) (bool, error) {
		// Trials at one distance are independent; run them on the worker
		// pool. SplitIndexedInto derives each child stream purely from the
		// parent state + label + index, so concurrent derivation is safe
		// and the per-trial outcomes are identical at any GOMAXPROCS. The
		// scenario is trial-invariant: build it once per probe and share it
		// read-only across the parallel trials.
		sc := mk(d)
		label := fmt.Sprintf("range-%.6g", d)
		err := engine.ForEachScratchCtx(ctx, lim, trialsPerPoint, scratches, func(i int, scratch any, r *rng.Rand) error {
			parent.SplitIndexedInto(r, label, i)
			tr, err := runCommScratch(scratch.(*commKit), sc, n, model, CommOptions{}, r)
			if err != nil {
				return err
			}
			good[i] = tr.Powered && tr.Decoded
			return nil
		})
		if err != nil {
			return false, err
		}
		succ := 0
		for _, g := range good {
			if g {
				succ++
			}
		}
		return succ >= successNeeded, nil
	}
	okLo, err := ok(lo)
	if err != nil {
		return 0, err
	}
	if !okLo {
		return 0, nil
	}
	if okHi, err := ok(hi); err != nil {
		return 0, err
	} else if okHi {
		return hi, nil
	}
	for i := 0; i < 24 && hi-lo > hi*1e-3; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection suits dB-linear links
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
