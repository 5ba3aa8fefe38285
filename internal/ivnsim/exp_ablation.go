package ivnsim

import (
	"fmt"
	"math"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/gen2"
	"ivn/internal/link"
	"ivn/internal/pool"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/stats"
	"ivn/internal/tag"
)

// Ablation experiments for the design choices DESIGN.md calls out.

func init() {
	register(Experiment{
		ID:    "ablation-coherent",
		Title: "Oracle coherent beamforming vs CIB vs blind baseline, air vs tissue",
		Paper: "footnote 5: coherent beamforming beats the baseline only in air; through other media the difference is negligible — and it needs channel feedback CIB does not",
		Run:   runAblationCoherent,
	})
	register(Experiment{
		ID:    "ablation-equalpower",
		Title: "CIB under a fixed total power budget (1/√N per-antenna scaling)",
		Paper: "§3.4: equal-budget CIB still yields an N× peak power gain",
		Run:   runAblationEqualPower,
	})
	register(Experiment{
		ID:    "ablation-twostage",
		Title: "Two-stage CIB: discovery (peak) vs steady (conduction-angle) plans",
		Paper: "§3.7: with attenuation known, optimizing time-above-threshold transfers more energy",
		Run:   runAblationTwoStage,
	})
	register(Experiment{
		ID:    "ablation-flatness",
		Title: "Downlink decode success vs RMS frequency offset (Eq. 9 cliff)",
		Paper: "RMS offsets beyond ≈199 Hz corrupt an 800 µs query's envelope",
		Run:   runAblationFlatness,
	})
	register(Experiment{
		ID:    "ablation-averaging",
		Title: "Uplink decode success vs coherent averaging periods",
		Paper: "§5b: 1 s coherent averaging is what makes deep-tissue uplinks decodable",
		Run:   runAblationAveraging,
	})
	register(Experiment{
		ID:    "ablation-outofband",
		Title: "In-band vs out-of-band reader under CIB self-jamming",
		Paper: "§4: the in-band receiver saturates; the out-of-band SAW-filtered receiver does not",
		Run:   runAblationOutOfBand,
	})
}

func runAblationCoherent(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-coherent", "Median peak power gain over a single antenna (10 antennas)",
		engine.Col("medium", ""), engine.Col("CIB (blind)", ""), engine.Col("oracle MRT", ""), engine.Col("blind array", ""))
	sweep := engine.Sweep[scenario.Scenario, GainSample]{
		Trials: cfg.trials(80, 20),
		Plan: func(scenario.Scenario) (uint64, string) {
			// Every medium reuses the same streams: RunGainTrialsCtx's historical
			// seeding, kept for byte-identical tables.
			return cfg.Seed, "gain-trial"
		},
		Measure: func(sc scenario.Scenario, _ int, r *rng.Rand) (GainSample, error) {
			return MeasureGains(sc, 10, r)
		},
		Row: func(sc scenario.Scenario, samples []GainSample) ([]engine.Cell, error) {
			cib, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			mrt, err := gainStats(samples, func(g GainSample) float64 { return g.MRT / g.Single })
			if err != nil {
				return nil, err
			}
			blind, err := gainStats(samples, func(g GainSample) float64 { return g.Blind / g.Single })
			if err != nil {
				return nil, err
			}
			return []engine.Cell{
				engine.Str(sc.Name()),
				engine.Number("%.1f", cib.Median),
				engine.Number("%.1f", mrt.Median),
				engine.Number("%.1f", blind.Median),
			}, nil
		},
	}
	err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []scenario.Scenario{
		scenario.NewAir(3),
		scenario.NewTank(0.5, em.Water, 0.10),
		scenario.NewTank(0.5, em.Muscle, 0.05),
	})
	if err != nil {
		return nil, err
	}
	res.AddNote("oracle MRT needs per-antenna channel feedback — unobtainable from an unpowered implant")
	res.AddNote("CIB reaches a large fraction of the oracle gain with zero channel knowledge")
	return res, nil
}

// equalPowerSample is one equal-budget trial: gains under the fixed total
// budget and under the N-chain budget, against the same placement.
// Exported fields: journaled runs serialize samples to JSONL.
type equalPowerSample struct {
	Eq, Full float64
}

func runAblationEqualPower(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-equalpower", "CIB peak power gain with total power fixed to one chain's budget",
		engine.Col("antennas", ""), engine.Col("median gain (equal budget)", ""), engine.Col("median gain (N× budget)", ""))
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	sweep := engine.Sweep[int, equalPowerSample]{
		Trials: cfg.trials(80, 20),
		Plan: func(n int) (uint64, string) {
			return cfg.Seed, fmt.Sprintf("eqp-%d", n)
		},
		Measure: func(n, _ int, r *rng.Rand) (equalPowerSample, error) {
			var s equalPowerSample
			p, err := sc.Realize(n, r)
			if err != nil {
				return s, err
			}
			chans := link.DownlinkCoeffs(p, 915e6)
			bcfg := core.DefaultConfig()
			bcfg.Antennas = n
			bf, err := core.New(bcfg, r.Split("cib"))
			if err != nil {
				return s, err
			}
			pf, err := baseline.PeakReceivedPowerRefined(bf.Carriers(), chans, link.ScanDuration, link.ScanCoarse, link.ScanSamples)
			if err != nil {
				return s, err
			}
			pe, err := baseline.PeakReceivedPowerRefined(bf.EqualPowerCarriers(), chans, link.ScanDuration, link.ScanCoarse, link.ScanSamples)
			if err != nil {
				return s, err
			}
			single := baseline.SingleAntenna(915e6, link.ChainAmplitude())
			ps, err := baseline.PeakReceivedPower(single, chans[:1], link.ScanDuration, 1)
			if err != nil {
				return s, err
			}
			s.Eq = pe / ps
			s.Full = pf / ps
			return s, nil
		},
		Row: func(n int, samples []equalPowerSample) ([]engine.Cell, error) {
			eq := make([]float64, len(samples))
			full := make([]float64, len(samples))
			for i, s := range samples {
				eq[i] = s.Eq
				full[i] = s.Full
			}
			se, err := stats.Summarize(eq)
			if err != nil {
				return nil, err
			}
			sf, err := stats.Summarize(full)
			if err != nil {
				return nil, err
			}
			return []engine.Cell{
				engine.Int(n),
				engine.Number("%.1f", se.Median),
				engine.Number("%.1f", sf.Median),
			}, nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []int{2, 4, 8, 10}); err != nil {
		return nil, err
	}
	res.AddNote("equal-budget gain tracks ≈N (paper §3.4); the N× budget adds another factor of N")
	return res, nil
}

func runAblationTwoStage(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-twostage", "Discovery (peak-optimized) vs steady (dwell-optimized) plans, N=5",
		engine.Col("plan", ""), engine.Col("offsets", "Hz"), engine.Col("E[peak]/N", ""), engine.Col("E[dwell above 0.45N]", "ms"))
	r := rng.New(cfg.Seed)
	ocfg := core.DefaultOptimizerConfig()
	if cfg.Quick {
		ocfg.Trials, ocfg.SamplesPerTrial, ocfg.Restarts, ocfg.StepsPerRestart = 12, 1024, 2, 16
	}
	const n, rho = 5, 0.45
	discovery, err := core.Optimize(n, ocfg, r.Split("disc"))
	if err != nil {
		return nil, err
	}
	steady, err := core.OptimizeConductionAngle(n, rho, ocfg, r.Split("steady"))
	if err != nil {
		return nil, err
	}
	evalPeak := func(offs []float64) float64 {
		return core.ExpectedPeak(offs, 60, 4096, rng.New(cfg.Seed+101))
	}
	evalDwell := func(offs []float64) float64 {
		return core.ExpectedDwellTime(offs, rho*n, 60, 8192, rng.New(cfg.Seed+102))
	}
	for _, row := range []struct {
		name string
		plan core.Plan
	}{{"discovery", discovery}, {"steady", steady}} {
		res.AddRow(
			engine.Str(row.name),
			engine.List(row.plan.Offsets),
			engine.Number("%.3f", evalPeak(row.plan.Offsets)/n),
			engine.Number("%.2f", evalDwell(row.plan.Offsets)*1e3),
		)
	}
	res.AddNote("the steady plan holds the envelope above the (now known) threshold for longer contiguous bursts, trading peak height for charge time (§3.7)")
	return res, nil
}

// flatnessSample is one flatness trial: whether the query decoded and the
// worst high-level envelope fluctuation observed. Exported fields:
// journaled runs serialize samples to JSONL.
type flatnessSample struct {
	Decoded bool
	Fluct   float64
}

func runAblationFlatness(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-flatness", "Query decode success vs plan RMS offset (tag envelope detector)",
		engine.Col("RMS Δf", "Hz"), engine.Col("decode success", ""), engine.Col("envelope fluctuation α", ""))
	trials := cfg.trials(40, 10)
	pie := gen2.DefaultPIE(1e6)
	q := &gen2.Query{Q: 4}
	bits := q.AppendBits(nil)
	baseEnv, err := pie.EncodeFrame(bits, true)
	if err != nil {
		return nil, err
	}
	// Extend with CW so the decoder sees the frame end.
	env := append(append([]float64(nil), baseEnv...), ones(2000)...)
	// Candidate plans with growing RMS: scaled versions of the paper set.
	sweep := engine.Sweep[float64, flatnessSample]{
		Trials: trials,
		Plan: func(scale float64) (uint64, string) {
			return cfg.Seed, fmt.Sprintf("flat-%v", scale)
		},
		Measure: func(scale float64, _ int, r *rng.Rand) (flatnessSample, error) {
			var s flatnessSample
			offsets := make([]float64, 10)
			for i, f := range core.PaperOffsets() {
				offsets[i] = f * scale
			}
			betas := make([]float64, len(offsets))
			for i := range betas {
				if i > 0 {
					betas[i] = r.Phase()
				}
			}
			// Align the envelope peak with the command start (the beamformer
			// times commands near peaks); sample the beat envelope across
			// the frame.
			_, peakIdx := peakIndex(offsets, betas)
			combined := make([]float64, len(env))
			var lo, hi float64 = math.Inf(1), 0
			for k := range env {
				tm := peakIdx + float64(k)/1e6
				b := core.Envelope(offsets, betas, tm)
				combined[k] = env[k] * b
				if env[k] > 0.5 { // measure fluctuation on the high level only
					lo = math.Min(lo, b)
					hi = math.Max(hi, b)
				}
			}
			if hi > 0 {
				s.Fluct = (hi - lo) / hi
			}
			got, _, err := pie.DecodeFrame(combined)
			s.Decoded = err == nil && got.Equal(bits)
			return s, nil
		},
		Row: func(scale float64, samples []flatnessSample) ([]engine.Cell, error) {
			offsets := make([]float64, 10)
			for i, f := range core.PaperOffsets() {
				offsets[i] = f * scale
			}
			ok := 0
			var worstFluct float64
			for _, s := range samples {
				if s.Decoded {
					ok++
				}
				worstFluct = math.Max(worstFluct, s.Fluct)
			}
			return []engine.Cell{
				engine.Number("%.0f", core.RMSOffset(offsets)),
				engine.Counts(ok, trials),
				engine.Number("%.2f", worstFluct),
			}, nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []float64{0.5, 1, 2, 4, 8, 16}); err != nil {
		return nil, err
	}
	res.AddNote("the Eq. 9 limit for this 1.06 ms query is %.0f Hz; success collapses beyond it", mustLimitFor(pie, bits))
	return res, nil
}

func mustLimitFor(pie gen2.PIEParams, bits gen2.Bits) float64 {
	l, err := core.FlatnessLimit(core.DefaultFlatnessAlpha, pie.FrameDuration(bits, true))
	if err != nil {
		panic(err)
	}
	return l
}

func peakIndex(offsets, betas []float64) (float64, float64) {
	const n = 4096
	buf := pool.Float64(n)
	defer pool.PutFloat64(buf)
	core.EnvelopeSeries(offsets, betas, 1.0, n, buf)
	best, bestK := 0.0, 0
	for k, y := range buf {
		if y > best {
			best, bestK = y, k
		}
	}
	return best, float64(bestK) / n
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func runAblationAveraging(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-averaging", "Gastric uplink decode success vs coherent averaging periods",
		engine.Col("averaging periods K", ""), engine.Col("decoded", ""))
	trials := cfg.trials(20, 8)
	sc := scenario.NewSwine(scenario.Gastric)
	model := tag.StandardTag()
	sweep := engine.Sweep[int, bool]{
		Trials: trials,
		Plan: func(int) (uint64, string) {
			return cfg.Seed, "avg" // same placements across K
		},
		Measure: func(k, _ int, r *rng.Rand) (bool, error) {
			p, err := sc.Realize(8, r)
			if err != nil {
				return false, err
			}
			tg, err := tag.New(model, []byte{0xE2, 0x00, 0x12, 0x34}, r.Split("tag"))
			if err != nil {
				return false, err
			}
			chans := link.DownlinkCoeffs(p, 915e6)
			bcfg := core.DefaultConfig()
			bcfg.Antennas = 8
			bf, err := core.New(bcfg, r.Split("cib"))
			if err != nil {
				return false, err
			}
			peak, err := baseline.PeakReceivedPowerRefined(bf.Carriers(), chans, link.ScanDuration, link.ScanCoarse, link.ScanSamples)
			if err != nil {
				return false, err
			}
			tg.UpdatePower(peak)
			if !tg.Powered() {
				return false, nil
			}
			reply := tg.HandleCommand(&gen2.Query{Q: 0})
			if reply.Kind != gen2.ReplyRN16 {
				return false, nil
			}
			rd := reader.New()
			rd.AveragingPeriods = k
			// Weaken the reader transmit power so the uplink SNR — not
			// power-up — is the binding constraint the sweep exposes.
			rd.TxAmplitude = 0.2
			bs, err := tg.BackscatterWaveform(reply, rd.SamplesPerHalfBit)
			if err != nil {
				return false, err
			}
			tagG := model.AntennaAmplitudeGain()
			gain := reader.RoundTripGain(rd.TxAmplitude, p.ReaderDown.Coefficient(rd.TxFreq), p.ReaderUp.Coefficient(rd.TxFreq)) * complex(tagG*tagG, 0)
			leak := p.CIBLeakPerWatt * 8 * link.ChainAmplitude() * link.ChainAmplitude()
			jam := []radio.ToneAt{{Freq: 915e6, Power: leak}}
			if dr, err := rd.DecodeUplink(bs, gain, jam, len(reply.Bits), r.Split(fmt.Sprintf("ul-%d", k))); err == nil && dr.Bits.Equal(reply.Bits) {
				return true, nil
			}
			return false, nil
		},
		Row: func(k int, decoded []bool) ([]engine.Cell, error) {
			ok := 0
			for _, d := range decoded {
				if d {
					ok++
				}
			}
			return []engine.Cell{engine.Int(k), engine.Counts(ok, trials)}, nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []int{1, 2, 4, 8, 16, 32, 64}); err != nil {
		return nil, err
	}
	res.AddNote("identical placements across rows; only the averaging depth changes")
	return res, nil
}

func runAblationOutOfBand(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-outofband", "Reader architecture under CIB self-jamming (10 chains at 30 dBm)",
		engine.Col("reader", ""), engine.Col("saturated", ""), engine.Col("effective interference", "dBm"), engine.Col("decode possible", ""))
	p, err := scenario.NewTank(0.5, em.Water, 0.10).Realize(10, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	leak := p.CIBLeakPerWatt * 10 * link.ChainAmplitude() * link.ChainAmplitude()
	jam := []radio.ToneAt{{Freq: 915e6, Power: leak}}
	model := tag.StandardTag()
	tagG := model.AntennaAmplitudeGain()
	modAmp := reader.ModulationAmplitude(model.BackscatterGain, model.BackscatterDepth)

	mk := func(center float64) *reader.Reader {
		rd := reader.New()
		rd.TxFreq = center
		rd.RX = radio.NewReceiver(center)
		return rd
	}
	for _, row := range []struct {
		name   string
		reader *reader.Reader
	}{
		{"in-band (915 MHz)", mk(915e6)},
		{"out-of-band (880 MHz)", mk(880e6)},
	} {
		rd := row.reader
		gain := reader.RoundTripGain(rd.TxAmplitude, p.ReaderDown.Coefficient(rd.TxFreq), p.ReaderUp.Coefficient(rd.TxFreq)) * complex(tagG*tagG, 0)
		sat := rd.RX.Saturated(jam)
		eff := rd.RX.EffectiveInterference(jam)
		dec := rd.DecodableRN16(gain, modAmp, jam)
		res.AddRow(
			engine.Str(row.name),
			engine.Bool(sat),
			engine.Number("%.1f", 10*math.Log10(eff)+30),
			engine.Bool(dec),
		)
	}
	res.AddNote("CIB leak at the reader antenna: %.1f dBm", 10*math.Log10(leak)+30)
	return res, nil
}
