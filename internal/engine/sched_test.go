package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ivn/internal/rng"
)

func TestForEachRunsAll(t *testing.T) {
	var count int64
	hit := make([]bool, 100)
	err := ForEachCtx(context.Background(), Limits{}, 100, func(i int) error {
		atomic.AddInt64(&count, 1)
		hit[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d of 100", count)
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	// Multiple failures: the lowest-indexed error must surface, so error
	// reporting is deterministic regardless of scheduling.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for round := 0; round < 10; round++ {
		err := ForEachCtx(context.Background(), Limits{}, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 33:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("round %d: got %v, want the index-7 error", round, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), Limits{}, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachCtx(context.Background(), Limits{}, -3, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestMaxParallelPositive(t *testing.T) {
	if MaxParallel() < 1 {
		t.Fatalf("MaxParallel() = %d", MaxParallel())
	}
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ForEachCtx(context.Background(), Limits{}, 16, func(int) error { return nil })
	}
}

func TestLimitsCapWorkers(t *testing.T) {
	// A per-run cap must bound concurrency without touching the process
	// default: two runs with different Limits in the same process see
	// their own caps.
	var inFlight, peak atomic.Int64
	err := ForEachCtx(context.Background(), Limits{MaxParallel: 3}, 64, func(int) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("observed %d concurrent callbacks with per-run cap 3", peak.Load())
	}
}

func TestForEachCtxCancelStopsClaiming(t *testing.T) {
	// Cancel after the first trial: workers must stop claiming new
	// indices and the call must return the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachCtx(ctx, Limits{MaxParallel: 1}, 1000, func(i int) error {
		ran.Add(1)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d trials ran despite cancellation", n)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachCtx(ctx, Limits{}, 10, func(int) error {
		t.Error("trial ran on a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestForEachCtxCompletedRunIgnoresLateCancel(t *testing.T) {
	// A context cancelled only after every index completed must not turn
	// a finished run into an error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ForEachCtx(ctx, Limits{}, 50, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSchedMetricsCountsTrials(t *testing.T) {
	var m SchedMetrics
	lim := Limits{MaxParallel: 2, Metrics: &m}
	if err := ForEachCtx(context.Background(), lim, 40, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Trials.Load(); got != 40 {
		t.Fatalf("Trials = %d, want 40", got)
	}
	if got := m.Busy.Load(); got != 0 {
		t.Fatalf("Busy = %d after completion, want 0", got)
	}
	if got := m.Cap.Load(); got != 2 {
		t.Fatalf("Cap = %d, want 2", got)
	}
	// A second run through the same metrics accumulates.
	if err := ForEachCtx(context.Background(), lim, 10, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Trials.Load(); got != 50 {
		t.Fatalf("Trials = %d after second run, want 50", got)
	}
}

func TestForEachPanicBecomesLowestIndexError(t *testing.T) {
	// Panics at 3 and 7: the call returns the index-3 error at every cap,
	// and the process survives.
	for _, workers := range []int{1, 2, 4} {
		for round := 0; round < 5; round++ {
			err := ForEachCtx(context.Background(), Limits{MaxParallel: workers}, 20, func(i int) error {
				if i == 3 || i == 7 {
					panic(fmt.Sprintf("boom at %d", i))
				}
				return nil
			})
			var p *trialPanic
			if !errors.As(err, &p) || p.index != 3 {
				t.Fatalf("MaxParallel %d: got %v, want the index-3 panic", workers, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "trial 3") || !strings.Contains(msg, "boom at 3") {
				t.Fatalf("MaxParallel %d: error %q does not name trial 3 and its panic", workers, msg)
			}
		}
	}
}

func TestTrialsPanicNamesLabelAndTrial(t *testing.T) {
	_, err := TrialsCtx(context.Background(), Limits{MaxParallel: 2}, 1, "probe", 10, func(trial int, _ *rng.Rand) (int, error) {
		if trial == 6 {
			panic("bad trial")
		}
		return trial, nil
	})
	if err == nil || err.Error() != `engine: trial 6 of "probe" panicked: bad trial` {
		t.Fatalf("got %v", err)
	}
}
