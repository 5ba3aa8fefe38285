package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ivn/internal/rng"
)

func TestTrialsDeterministic(t *testing.T) {
	measure := func(_ int, r *rng.Rand) (float64, error) {
		return r.Float64(), nil
	}
	a, err := TrialsCtx(context.Background(), Limits{}, 7, "demo", 32, measure)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrialsCtx(context.Background(), Limits{}, 7, "demo", 32, measure)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical (seed, label, n) produced different samples")
	}
	c, err := TrialsCtx(context.Background(), Limits{}, 8, "demo", 32, measure)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestTrialsMatchesSplitIndexedByHand(t *testing.T) {
	// The engine's streams must be exactly the hand-rolled pattern the
	// experiments used before the migration: parent := rng.New(seed);
	// r := parent.SplitIndexed(label, i).
	got, err := TrialsCtx(context.Background(), Limits{}, 11, "check", 8, func(_ int, r *rng.Rand) (float64, error) {
		return r.Float64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parent := rng.New(11)
	for i, g := range got {
		want := parent.SplitIndexed("check", i).Float64()
		if g != want {
			t.Fatalf("trial %d: engine %v, hand-rolled %v", i, g, want)
		}
	}
}

func TestTrialsRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := TrialsCtx(context.Background(), Limits{}, 1, "x", n, func(int, *rng.Rand) (int, error) { return 0, nil }); err == nil {
			t.Fatalf("%d trials accepted", n)
		}
	}
}

func TestTrialsSurfacesLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	_, err := TrialsCtx(context.Background(), Limits{}, 1, "x", 16, func(i int, _ *rng.Rand) (int, error) {
		if i >= 4 {
			return 0, fmt.Errorf("trial %d: %w", i, boom)
		}
		return i, nil
	})
	if err == nil || err.Error() != "trial 4: boom" {
		t.Fatalf("got %v, want the index-4 error", err)
	}
}

func TestSweepRunInto(t *testing.T) {
	res := NewResult("s", "sweep demo", Col("n", ""), Col("sum", ""))
	sweep := Sweep[int, float64]{
		Trials: 4,
		Plan: func(n int) (uint64, string) {
			return uint64(n), fmt.Sprintf("point-%d", n)
		},
		Measure: func(n, trial int, _ *rng.Rand) (float64, error) {
			return float64(n * trial), nil
		},
		Row: func(n int, samples []float64) ([]Cell, error) {
			sum := 0.0
			for _, v := range samples {
				sum += v
			}
			return []Cell{Int(n), Number("%.0f", sum)}, nil
		},
	}
	if err := sweep.RunIntoCtx(context.Background(), Limits{}, res, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	// n * (0+1+2+3) = 6n
	for i, n := range []int{1, 2, 3} {
		if got := res.Rows[i][1].Text(); got != fmt.Sprintf("%d", 6*n) {
			t.Fatalf("row %d sum %q, want %d", i, got, 6*n)
		}
	}
}

func TestSweepErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	sweep := Sweep[int, int]{
		Trials: 2,
		Plan:   func(n int) (uint64, string) { return 0, "p" },
		Measure: func(n, _ int, _ *rng.Rand) (int, error) {
			if n == 2 {
				return 0, boom
			}
			return n, nil
		},
		Row: func(n int, samples []int) ([]Cell, error) { return []Cell{Int(n)}, nil },
	}
	if _, err := sweep.RunCtx(context.Background(), Limits{}, []int{1, 2}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestTrialsScratchMatchesTrials(t *testing.T) {
	measure := func(_ int, r *rng.Rand) (float64, error) {
		return r.Float64(), nil
	}
	want, err := TrialsCtx(context.Background(), Limits{}, 19, "batched", 64, measure)
	if err != nil {
		t.Fatal(err)
	}
	// Same streams regardless of worker count or scratch reuse; the cap
	// rides per-run Limits, not the process global.
	for _, workers := range []int{1, 4} {
		s := NewScratches(func() any { return new(int) })
		got, err := TrialsScratchCtx(context.Background(), Limits{MaxParallel: workers}, 19, "batched", 64, s, func(_ int, scratch any, r *rng.Rand) (float64, error) {
			*(scratch.(*int))++ // mutate worker state: must not affect samples
			return r.Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: TrialsScratch diverged from Trials", workers)
		}
	}
}

func TestScratchesPersistAcrossCalls(t *testing.T) {
	created := 0
	s := NewScratches(func() any { created++; return new(int) })
	for call := 0; call < 3; call++ {
		if _, err := TrialsScratchCtx(context.Background(), Limits{}, 1, "x", 32, s, func(int, any, *rng.Rand) (int, error) {
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if max := MaxParallel(); created > max {
		t.Fatalf("created %d scratches for %d workers: slots not reused", created, max)
	}
}

func TestSweepPreparedSharedContext(t *testing.T) {
	// The batched path: Prepare runs once per point, its result is shared
	// read-only by all trials, and the samples match what the unbatched
	// Measure formulation yields on the same plan. Run under -race this
	// also proves the sharing is race-free.
	type ctx struct{ scale float64 }
	prepares := 0
	batched := Sweep[int, float64]{
		Trials:     32,
		Plan:       func(n int) (uint64, string) { return uint64(n), "pt" },
		Prepare:    func(n int) (any, error) { prepares++; return &ctx{scale: float64(n)}, nil },
		NewScratch: func() any { return make([]float64, 8) },
		MeasureScratch: func(n int, c, scratch any, trial int, r *rng.Rand) (float64, error) {
			buf := scratch.([]float64)
			buf[0] = r.Float64() // scribble on worker scratch
			return buf[0] * c.(*ctx).scale, nil
		},
		Row: func(n int, samples []float64) ([]Cell, error) {
			sum := 0.0
			for _, v := range samples {
				sum += v
			}
			return []Cell{Number("%.12g", sum)}, nil
		},
	}
	plain := batched
	plain.Prepare, plain.NewScratch, plain.MeasureScratch = nil, nil, nil
	plain.Measure = func(n, trial int, r *rng.Rand) (float64, error) {
		return r.Float64() * float64(n), nil
	}
	got, err := batched.RunCtx(context.Background(), Limits{}, []int{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunCtx(context.Background(), Limits{}, []int{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batched sweep diverged from the plain formulation")
	}
	if prepares != 3 {
		t.Fatalf("Prepare ran %d times, want once per point", prepares)
	}
}

func TestSweepRejectsAmbiguousMeasure(t *testing.T) {
	row := func(n int, samples []int) ([]Cell, error) { return []Cell{Int(n)}, nil }
	plan := func(n int) (uint64, string) { return 0, "p" }
	neither := Sweep[int, int]{Trials: 1, Plan: plan, Row: row}
	if _, err := neither.RunCtx(context.Background(), Limits{}, []int{1}); err == nil {
		t.Fatal("sweep with neither Measure nor MeasureScratch accepted")
	}
	both := Sweep[int, int]{
		Trials:         1,
		Plan:           plan,
		Row:            row,
		Measure:        func(int, int, *rng.Rand) (int, error) { return 0, nil },
		MeasureScratch: func(int, any, any, int, *rng.Rand) (int, error) { return 0, nil },
	}
	if _, err := both.RunCtx(context.Background(), Limits{}, []int{1}); err == nil {
		t.Fatal("sweep with both Measure and MeasureScratch accepted")
	}
}
