package ivnsim

import (
	"fmt"

	"ivn/internal/core"
	"ivn/internal/engine"
	"ivn/internal/rng"
	"ivn/internal/stats"
)

// Frequency-selection experiments: the Fig. 6 CDF and the §3.6 one-time
// optimization itself.

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "CDF of 5-antenna CIB peak power gain: best vs worst frequency set",
		Paper: "best set: ≥90% of optimal across channel draws; worst: <75% for half the draws",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "freqopt",
		Title: "One-time Monte-Carlo frequency-set optimization (Eq. 10)",
		Paper: "published plan: Δf = {0,7,20,49,68,73,90,113,121,137} Hz, RMS < 199 Hz",
		Run:   runFreqOpt,
	})
}

func runFig6(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("fig6", "CIB peak power gain CDF, 5-antenna transmitter",
		engine.Col("power gain", ""), engine.Col("CDF best set", ""), engine.Col("CDF worst set", ""))
	r := rng.New(cfg.Seed)
	trials := cfg.trials(2000, 300)
	samples := 4096
	if cfg.Quick {
		samples = 2048
	}

	best := core.PaperOffsets()[:5]
	ocfg := core.DefaultOptimizerConfig()
	ocfg.ForEach = cfg.monteCarlo()
	if cfg.Quick {
		ocfg.Trials, ocfg.SamplesPerTrial = 16, 1024
	}
	worstPlan, err := core.WorstOf(5, 24, ocfg, r.Split("worst"))
	if err != nil {
		return nil, err
	}

	bestCDFData, err := core.PeakCDF(best, trials, samples, r.Split("best-cdf"), ocfg.ForEach)
	if err != nil {
		return nil, err
	}
	worstCDFData, err := core.PeakCDF(worstPlan.Offsets, trials, samples, r.Split("worst-cdf"), ocfg.ForEach)
	if err != nil {
		return nil, err
	}
	bestCDF, err := stats.NewCDF(bestCDFData)
	if err != nil {
		return nil, err
	}
	worstCDF, err := stats.NewCDF(worstCDFData)
	if err != nil {
		return nil, err
	}
	for g := 8.0; g <= 25.0; g += 1.0 {
		res.AddRow(
			engine.Number("%.0f", g),
			engine.Number("%.3f", bestCDF.At(g)),
			engine.Number("%.3f", worstCDF.At(g)),
		)
	}
	medBest := bestCDF.Quantile(0.5)
	medWorst := worstCDF.Quantile(0.5)
	res.AddNote("best set %v (median gain %.1f of max 25)", best, medBest)
	res.AddNote("worst-of-24 set %v (median gain %.1f)", worstPlan.Offsets, medWorst)
	res.AddNote("fraction of draws with best-set gain >= 22.5 (90%% of optimal): %.2f",
		bestCDF.FractionAbove(22.5))
	return res, nil
}

func runFreqOpt(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("freqopt", "Constrained frequency-plan optimization per antenna count",
		engine.Col("N", ""), engine.Col("optimized Δf", "Hz"), engine.Col("E[peak]/N", ""), engine.Col("RMS", "Hz"), engine.Col("limit", "Hz"))
	r := rng.New(cfg.Seed)
	ocfg := core.DefaultOptimizerConfig()
	ocfg.ForEach = cfg.monteCarlo()
	counts := []int{3, 5, 8, 10}
	if cfg.Quick {
		ocfg.Trials, ocfg.SamplesPerTrial, ocfg.Restarts, ocfg.StepsPerRestart = 12, 1024, 2, 16
		counts = []int{3, 5}
	}
	for _, n := range counts {
		plan, err := core.Optimize(n, ocfg, r.Split(fmt.Sprintf("opt-%d", n)))
		if err != nil {
			return nil, err
		}
		res.AddRow(
			engine.Int(n),
			engine.List(plan.Offsets),
			engine.Number("%.3f", plan.Score/float64(n)),
			engine.Number("%.1f", plan.RMS),
			engine.Number("%.1f", plan.Limit),
		)
	}
	paper := core.PaperOffsets()
	seed := uint64(0)
	for _, f := range paper {
		seed = seed*1000003 + uint64(f)
	}
	paperScore, err := core.ExpectedPeak(paper, ocfg.Trials, ocfg.SamplesPerTrial, rng.New(seed), ocfg.ForEach)
	if err != nil {
		return nil, err
	}
	res.AddNote("paper plan %v: E[peak]/N = %.3f, RMS = %.1f Hz (limit %.1f Hz for an 800 µs query)",
		paper, paperScore/10, core.RMSOffset(paper), mustLimit())
	return res, nil
}

func mustLimit() float64 {
	l, err := core.FlatnessLimit(core.DefaultFlatnessAlpha, core.DefaultQueryDuration)
	if err != nil {
		panic(err)
	}
	return l
}
