package core

import (
	"testing"

	"ivn/internal/rng"
)

func TestBestKnownPlansValidAndFeasible(t *testing.T) {
	limit, err := FlatnessLimit(DefaultFlatnessAlpha, DefaultQueryDuration)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 10; n++ {
		p, err := BestKnownPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(p) != n {
			t.Fatalf("n=%d: plan has %d offsets", n, len(p))
		}
		if err := ValidateOffsets(p); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rms := RMSOffset(p); rms > limit {
			t.Fatalf("n=%d: RMS %v exceeds limit %v", n, rms, limit)
		}
	}
}

func TestBestKnownPlanUnknownN(t *testing.T) {
	if _, err := BestKnownPlan(1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := BestKnownPlan(11); err == nil {
		t.Fatal("n=11 accepted")
	}
}

func TestBestKnownPlanReturnsCopy(t *testing.T) {
	a, _ := BestKnownPlan(5)
	a[1] = 99999
	b, _ := BestKnownPlan(5)
	if b[1] == 99999 {
		t.Fatal("BestKnownPlan shares its backing array")
	}
}

func TestBestKnownPlansBeatPaperPrefixes(t *testing.T) {
	// The embedded plans came from a longer search than the paper's; they
	// must score at least as well as the corresponding paper prefix under
	// a common evaluator.
	for _, n := range []int{5, 8, 10} {
		best, err := BestKnownPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		paper := PaperOffsets()[:n]
		eval := func(offs []float64) float64 {
			return serial(ExpectedPeak(offs, 48, 4096, rng.New(12345), nil))
		}
		if sb, sp := eval(best), eval(paper); sb < sp {
			t.Fatalf("n=%d: best-known %.4f below paper prefix %.4f", n, sb, sp)
		}
	}
}
