package core

import (
	"math"
	"strings"
	"testing"

	"ivn/internal/rng"
)

func fastCfg() OptimizerConfig {
	return OptimizerConfig{
		Trials:          12,
		SamplesPerTrial: 1024,
		Restarts:        2,
		StepsPerRestart: 20,
	}
}

func TestOptimizeProducesFeasiblePlan(t *testing.T) {
	plan, err := Optimize(5, fastCfg(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateOffsets(plan.Offsets); err != nil {
		t.Fatalf("optimizer emitted invalid offsets: %v", err)
	}
	if plan.RMS > plan.Limit {
		t.Fatalf("plan RMS %v exceeds limit %v", plan.RMS, plan.Limit)
	}
	if plan.Score <= 0 || plan.Score > 5 {
		t.Fatalf("score %v out of (0, N]", plan.Score)
	}
	if !strings.Contains(plan.String(), "N=5") {
		t.Fatalf("unhelpful String: %s", plan.String())
	}
}

func TestOptimizeBeatsTypicalRandomSet(t *testing.T) {
	// The optimized set should score at least as well as the average of a
	// few random feasible sets (Fig. 6's point: selection matters).
	r := rng.New(2)
	cfg := fastCfg()
	plan, err := Optimize(5, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	limit := plan.Limit
	var avg float64
	const k = 6
	for i := 0; i < k; i++ {
		offs := randomFeasibleOffsets(5, limit, r)
		avg += serial(ExpectedPeak(offs, cfg.Trials, cfg.SamplesPerTrial, rng.New(candidateSeed(0, offs)), nil))
	}
	avg /= k
	if plan.Score < avg {
		t.Fatalf("optimized score %v below random average %v", plan.Score, avg)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	a, err := Optimize(4, fastCfg(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(4, fastCfg(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || len(a.Offsets) != len(b.Offsets) {
		t.Fatal("optimizer not deterministic for equal seeds")
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatal("offset sets differ across identical runs")
		}
	}
}

func TestOptimizeRejectsBadN(t *testing.T) {
	if _, err := Optimize(1, fastCfg(), rng.New(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestOptimizeConductionAngle(t *testing.T) {
	plan, err := OptimizeConductionAngle(4, 0.5, fastCfg(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateOffsets(plan.Offsets); err != nil {
		t.Fatal(err)
	}
	if plan.Score <= 0 || plan.Score > 1 {
		t.Fatalf("conduction fraction %v out of (0,1]", plan.Score)
	}
	if plan.RMS > plan.Limit {
		t.Fatal("steady-stage plan violates flatness")
	}
	if _, err := OptimizeConductionAngle(1, 0.5, fastCfg(), rng.New(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := OptimizeConductionAngle(4, 1.5, fastCfg(), rng.New(1)); err == nil {
		t.Fatal("rho=1.5 accepted")
	}
}

func TestTwoStageTradeoff(t *testing.T) {
	// §3.7: the steady stage's plan should hold the envelope above the
	// known threshold for at least as long as the discovery (peak-
	// optimized) plan does — that is its whole purpose.
	cfg := fastCfg()
	rho := 0.45
	peakPlan, err := Optimize(5, cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	steadyPlan, err := OptimizeConductionAngle(5, rho, cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	level := rho * 5
	evalDwell := func(offs []float64) float64 {
		return serial(ExpectedDwellTime(offs, level, 40, 4096, rng.New(99), nil))
	}
	dPeak := evalDwell(peakPlan.Offsets)
	dSteady := evalDwell(steadyPlan.Offsets)
	if dSteady < dPeak*0.95 {
		t.Fatalf("steady plan dwell %v worse than discovery plan %v", dSteady, dPeak)
	}
}

func TestWorstOfFindsWeakSet(t *testing.T) {
	r := rng.New(4)
	cfg := fastCfg()
	worst, err := WorstOf(5, 8, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Optimize(5, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Score >= best.Score {
		t.Fatalf("worst-of score %v >= optimized score %v", worst.Score, best.Score)
	}
	if _, err := WorstOf(1, 3, cfg, r); err == nil {
		t.Fatal("bad n accepted")
	}
	if _, err := WorstOf(5, 0, cfg, r); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestRandomFeasibleOffsetsProperties(t *testing.T) {
	r := rng.New(5)
	limit, _ := FlatnessLimit(0.5, 800e-6)
	for i := 0; i < 50; i++ {
		offs := randomFeasibleOffsets(6, limit, r)
		if err := ValidateOffsets(offs); err != nil {
			t.Fatalf("draw %d invalid: %v", i, err)
		}
		if RMSOffset(offs) > limit {
			t.Fatalf("draw %d infeasible: RMS %v", i, RMSOffset(offs))
		}
	}
}

func TestMutatePreservesFeasibility(t *testing.T) {
	r := rng.New(6)
	limit, _ := FlatnessLimit(0.5, 800e-6)
	cur := randomFeasibleOffsets(5, limit, r)
	for i := 0; i < 100; i++ {
		next := mutate(cur, limit, r)
		if next == nil {
			continue
		}
		if err := ValidateOffsets(next); err != nil {
			t.Fatalf("mutation %d invalid: %v", i, err)
		}
		if RMSOffset(next) > limit {
			t.Fatalf("mutation %d infeasible", i)
		}
		cur = next
	}
}

func TestOptimizerConfigDefaults(t *testing.T) {
	var zero OptimizerConfig
	d := zero.withDefaults()
	if d.Trials == 0 || d.Restarts == 0 || d.SamplesPerTrial == 0 || d.StepsPerRestart == 0 {
		t.Fatalf("defaults not applied: %+v", d)
	}
	if d.Alpha != DefaultFlatnessAlpha || d.CommandDuration != DefaultQueryDuration {
		t.Fatalf("constraint defaults wrong: %+v", d)
	}
	if math.Abs(d.Alpha-0.5) > 1e-12 {
		t.Fatal("alpha default should be the decoding bound 0.5")
	}
}

func BenchmarkOptimize5(b *testing.B) {
	cfg := fastCfg()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(5, cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
