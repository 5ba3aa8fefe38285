package core

import (
	"fmt"
	"math"
	"sort"

	"ivn/internal/rng"
)

// The one-time frequency-selection optimization (paper §3.6, Eq. 10):
//
//	max over integer Δf₂..Δf_N of E_β[max_t |1 + Σ e^{j(2πΔfᵢt+βᵢ)}|]
//	s.t. (1/N)·ΣΔfᵢ² ≤ α/(2π²Δt²)
//
// The problem is non-convex; like the authors ("IVN performs a one-time
// monte-carlo simulation... less than 5 mins"), we solve it with a
// stochastic local search: random feasible starts, single-offset
// mutations, hill climbing on the Monte-Carlo objective.

// OptimizerConfig tunes the search.
type OptimizerConfig struct {
	// Alpha and CommandDuration define the flatness constraint.
	Alpha           float64
	CommandDuration float64
	// Trials is the Monte-Carlo channel draws per objective evaluation.
	Trials int
	// SamplesPerTrial is the time resolution of each envelope scan.
	SamplesPerTrial int
	// Restarts is the number of random starts.
	Restarts int
	// StepsPerRestart is the hill-climbing budget per start.
	StepsPerRestart int
	// ForEach fans each objective evaluation's Monte-Carlo scans out; nil
	// runs them in order on the caller. Plans do not depend on it, and
	// its error (a cancelled run's) ends the search.
	ForEach ForEach
}

// DefaultOptimizerConfig balances quality and runtime: enough trials to
// rank candidate sets reliably, enough restarts to escape poor basins.
func DefaultOptimizerConfig() OptimizerConfig {
	return OptimizerConfig{
		Alpha:           DefaultFlatnessAlpha,
		CommandDuration: DefaultQueryDuration,
		Trials:          48,
		SamplesPerTrial: 2048,
		Restarts:        4,
		StepsPerRestart: 60,
	}
}

func (c OptimizerConfig) withDefaults() OptimizerConfig {
	d := DefaultOptimizerConfig()
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.CommandDuration == 0 {
		c.CommandDuration = d.CommandDuration
	}
	if c.Trials == 0 {
		c.Trials = d.Trials
	}
	if c.SamplesPerTrial == 0 {
		c.SamplesPerTrial = d.SamplesPerTrial
	}
	if c.Restarts == 0 {
		c.Restarts = d.Restarts
	}
	if c.StepsPerRestart == 0 {
		c.StepsPerRestart = d.StepsPerRestart
	}
	return c
}

// Plan is an optimized CIB frequency plan.
type Plan struct {
	// Offsets is the Δf set in Hz, sorted ascending, Offsets[0] == 0.
	Offsets []float64
	// Score is the Monte-Carlo estimate of E_β[max_t Y(t)]; the ideal
	// ceiling is N (all carriers aligned).
	Score float64
	// RMS is the plan's RMS offset; must be <= Limit.
	RMS, Limit float64
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("Plan{N=%d score=%.2f/%d rms=%.1fHz limit=%.1fHz offsets=%v}",
		len(p.Offsets), p.Score, len(p.Offsets), p.RMS, p.Limit, p.Offsets)
}

// randomFeasibleOffsets draws a sorted distinct integer offset set whose
// RMS respects limit. Offsets are drawn from [1, maxOff] where maxOff is
// set so a uniform draw is usually feasible.
func randomFeasibleOffsets(n int, limit float64, r *rng.Rand) []float64 {
	// E[f²] for uniform on [1,M] ≈ M²/3; want n·M²/3 ≤ n·limit² ⇒ M ≈ √3·limit.
	maxOff := int(limit * math.Sqrt(3))
	if maxOff < n {
		maxOff = n // need at least n distinct values
	}
	for attempt := 0; ; attempt++ {
		seen := map[int]bool{0: true}
		offs := []float64{0}
		for len(offs) < n {
			v := 1 + r.Intn(maxOff)
			if !seen[v] {
				seen[v] = true
				offs = append(offs, float64(v))
			}
		}
		sort.Float64s(offs)
		if RMSOffset(offs) <= limit || attempt > 64 {
			return offs
		}
	}
}

// mutate returns a neighbor: one non-reference offset nudged to a new
// distinct positive integer, keeping the set sorted and feasible. Returns
// nil when no feasible neighbor was found in a few tries.
func mutate(offs []float64, limit float64, r *rng.Rand) []float64 {
	n := len(offs)
	for try := 0; try < 16; try++ {
		out := append([]float64(nil), offs...)
		i := 1 + r.Intn(n-1)
		// Geometric-ish step size: mostly local, occasionally long.
		step := 1 + r.Intn(8)
		if r.Intn(8) == 0 {
			step += r.Intn(32)
		}
		if r.Intn(2) == 0 {
			step = -step
		}
		nv := out[i] + float64(step)
		if nv < 1 {
			continue
		}
		dup := false
		for j, v := range out {
			//ivn:allow floatcmp offsets are exact small integers (integer steps on integer plans); the duplicate check is exact by construction
			if j != i && v == nv {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out[i] = nv
		sort.Float64s(out)
		if RMSOffset(out) <= limit {
			return out
		}
	}
	return nil
}

// Optimize searches for an n-carrier plan maximizing the expected peak
// envelope under the flatness constraint. n must be >= 2. The search is
// deterministic for a given r state.
func Optimize(n int, cfg OptimizerConfig, r *rng.Rand) (Plan, error) {
	if n < 2 {
		return Plan{}, fmt.Errorf("core: need >= 2 carriers, got %d", n)
	}
	cfg = cfg.withDefaults()
	limit, err := FlatnessLimit(cfg.Alpha, cfg.CommandDuration)
	if err != nil {
		return Plan{}, err
	}
	if float64(n) > limit*limit*3 {
		// Even the densest integer set {0,1,...,n-1} would violate the
		// constraint only in absurd configurations; guard anyway.
		dense := make([]float64, n)
		for i := range dense {
			dense[i] = float64(i)
		}
		if RMSOffset(dense) > limit {
			return Plan{}, fmt.Errorf("core: no feasible integer offsets for n=%d under limit %.1f Hz", n, limit)
		}
	}

	return climb(n, limit, cfg, r, func(offs []float64) (float64, error) {
		return ExpectedPeak(offs, cfg.Trials, cfg.SamplesPerTrial, rng.New(candidateSeed(0, offs)), cfg.ForEach)
	})
}

// candidateSeed derives a candidate's evaluation stream from the set
// itself, salted per objective, so an objective is a pure function of the
// set: re-evaluating a candidate always returns the same score, which
// keeps the hill climb stable.
func candidateSeed(salt uint64, offs []float64) uint64 {
	seed := salt
	for _, f := range offs {
		seed = seed*1000003 + uint64(f)
	}
	return seed
}

// climb is the stochastic local search behind Optimize and
// OptimizeConductionAngle: cfg.Restarts random feasible starts, each
// hill-climbed for cfg.StepsPerRestart single-offset mutations on
// objective, returning the best plan found. objective's error ends the
// search.
func climb(n int, limit float64, cfg OptimizerConfig, r *rng.Rand, objective func(offs []float64) (float64, error)) (Plan, error) {
	var best Plan
	haveBest := false
	for restart := 0; restart < cfg.Restarts; restart++ {
		cur := randomFeasibleOffsets(n, limit, r)
		curScore, err := objective(cur)
		if err != nil {
			return Plan{}, err
		}
		for step := 0; step < cfg.StepsPerRestart; step++ {
			cand := mutate(cur, limit, r)
			if cand == nil {
				continue
			}
			s, err := objective(cand)
			if err != nil {
				return Plan{}, err
			}
			if s > curScore {
				cur, curScore = cand, s
			}
		}
		if !haveBest || curScore > best.Score {
			best = Plan{Offsets: cur, Score: curScore, RMS: RMSOffset(cur), Limit: limit}
			haveBest = true
		}
	}
	return best, nil
}

// OptimizeConductionAngle is the §3.7 steady-stage variant: once the
// discovery stage has estimated the attenuation, the beamformer knows the
// threshold level (as a fraction rho of the maximum peak N) it must exceed
// and can maximize the contiguous *time* above it (the dwell a storage
// capacitor charges over) instead of the peak itself.
func OptimizeConductionAngle(n int, rho float64, cfg OptimizerConfig, r *rng.Rand) (Plan, error) {
	if n < 2 {
		return Plan{}, fmt.Errorf("core: need >= 2 carriers, got %d", n)
	}
	if rho <= 0 || rho >= 1 {
		return Plan{}, fmt.Errorf("core: threshold fraction rho %v outside (0,1)", rho)
	}
	cfg = cfg.withDefaults()
	limit, err := FlatnessLimit(cfg.Alpha, cfg.CommandDuration)
	if err != nil {
		return Plan{}, err
	}
	level := rho * float64(n)
	return climb(n, limit, cfg, r, func(offs []float64) (float64, error) {
		return ExpectedDwellTime(offs, level, cfg.Trials, cfg.SamplesPerTrial, rng.New(candidateSeed(1, offs)), cfg.ForEach)
	})
}

// ArithmeticOffsets returns the progression {0, k, 2k, …, (n−1)k}. Such
// harmonically related plans are the known-bad frequency selections: the
// carriers' phasors evolve along a low-dimensional orbit, so many phase
// draws never align well — the "worst frequency" curve of Fig. 6.
func ArithmeticOffsets(n int, k float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * k
	}
	return out
}

// WorstOf evaluates k random feasible sets plus the feasible arithmetic
// progressions and returns the lowest-scoring plan — the "worst frequency"
// comparator of Fig. 6.
func WorstOf(n, k int, cfg OptimizerConfig, r *rng.Rand) (Plan, error) {
	if n < 2 || k < 1 {
		return Plan{}, fmt.Errorf("core: bad WorstOf spec n=%d k=%d", n, k)
	}
	cfg = cfg.withDefaults()
	limit, err := FlatnessLimit(cfg.Alpha, cfg.CommandDuration)
	if err != nil {
		return Plan{}, err
	}
	var worst Plan
	haveWorst := false
	consider := func(offs []float64) error {
		if RMSOffset(offs) > limit {
			return nil
		}
		score, err := ExpectedPeak(offs, cfg.Trials, cfg.SamplesPerTrial, rng.New(candidateSeed(2, offs)), cfg.ForEach)
		if err != nil {
			return err
		}
		if !haveWorst || score < worst.Score {
			worst = Plan{Offsets: offs, Score: score, RMS: RMSOffset(offs), Limit: limit}
			haveWorst = true
		}
		return nil
	}
	for i := 0; i < k; i++ {
		if err := consider(randomFeasibleOffsets(n, limit, r)); err != nil {
			return Plan{}, err
		}
	}
	for _, step := range []float64{1, 2, 5, 10, 20, 50} {
		if err := consider(ArithmeticOffsets(n, step)); err != nil {
			return Plan{}, err
		}
	}
	return worst, nil
}
