package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxParallel is the default worker cap of a run whose Limits carry
// none: GOMAXPROCS.
func MaxParallel() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// SchedMetrics receives scheduler observability counters when attached to
// a run through Limits. All fields are updated atomically and may be read
// concurrently with running sweeps; a single SchedMetrics may be shared
// by many runs (the daemon aggregates every job into one), in which case
// the counters report the union.
//
// Trials counts only *executed* trials: a journaled run that replays
// recorded samples never schedules them, so resumed work leaves Trials
// untouched — which is exactly what the resume tests pin on.
//
// When runs with different per-run caps share one SchedMetrics (shard
// sub-jobs beside ordinary jobs), Cap is the union maximum — the largest
// cap any attached run ever resolved, not a sum and not the current
// run's cap. Busy/Cap is then a lower bound on occupancy, exact only
// while all attached runs resolved the same cap. Consumers that need a
// heterogeneous run's own cap must read it from that run's private
// SchedMetrics (chain it to the aggregate via Parent), which is how the
// service reports per-sub-job caps.
type SchedMetrics struct {
	// Trials counts completed trial invocations (executed, not replayed).
	Trials atomic.Int64
	// Busy is the number of workers currently executing a trial.
	Busy atomic.Int64
	// Cap is the largest worker cap any attached run has resolved — the
	// denominator for an occupancy estimate (Busy/Cap). Union max across
	// attached runs; see the type comment for heterogeneous-cap caveats.
	Cap atomic.Int64

	// Parent, when non-nil, receives every counter update this instance
	// does, letting a run keep private per-run numbers while rolling them
	// up into an aggregate (daemon shard sub-jobs chain into the service
	// metrics). Set before the run starts and never mutated after; chains
	// must be acyclic.
	Parent *SchedMetrics
}

// noteCap raises Cap to at least workers, propagating up the chain.
func (m *SchedMetrics) noteCap(workers int) {
	for {
		cur := m.Cap.Load()
		if int64(workers) <= cur || m.Cap.CompareAndSwap(cur, int64(workers)) {
			break
		}
	}
	if m.Parent != nil {
		m.Parent.noteCap(workers)
	}
}

// addBusy adjusts Busy along the chain.
func (m *SchedMetrics) addBusy(d int64) {
	for c := m; c != nil; c = c.Parent {
		c.Busy.Add(d)
	}
}

// addTrials adds executed-trial counts along the chain.
func (m *SchedMetrics) addTrials(d int64) {
	for c := m; c != nil; c = c.Parent {
		c.Trials.Add(d)
	}
}

// Limits is one run's scheduler configuration, carried alongside the job
// rather than stored in process globals so that concurrent runs in one
// process (daemon jobs) get independent parallelism caps. The zero value
// runs GOMAXPROCS workers and attaches no metrics.
type Limits struct {
	// MaxParallel caps this run's concurrent trial workers; 0 falls back
	// to GOMAXPROCS. Never changes results.
	MaxParallel int
	// Metrics, when non-nil, receives per-trial scheduler counters.
	Metrics *SchedMetrics

	// Shard restricts the run's Trials-level calls to the trial indices
	// this shard owns (stride partition; see Shard). The zero value runs
	// everything. A sharded run requires a Journal to record its
	// contributions — Trials errors otherwise, because a fragment without
	// a journal produces nothing recoverable. ForEachCtx/ForEachScratchCtx
	// sit BELOW the shard seam and ignore Shard entirely: adaptive helpers
	// (range bisection probes) run all their indices on every shard, so
	// control flow that depends on their outcomes stays identical across
	// shards and the merge replay.
	Shard Shard
	// Journal, when non-nil, checkpoint-journals the run's Trials-level
	// calls: recorded samples are replayed instead of re-executed
	// (resume/merge), executed samples are recorded. One Journal per run;
	// see Journal.
	Journal *Journal
}

// maxParallel resolves the run's effective worker cap.
func (l Limits) maxParallel() int {
	if l.MaxParallel > 0 {
		return l.MaxParallel
	}
	return MaxParallel()
}

// ForEachCtx runs fn(0..n-1) on the bounded worker pool and returns the
// error of the lowest-indexed failure, so the outcome — including which
// error surfaces — is independent of scheduling. Callers keep determinism
// by writing results into per-index slots and reducing them in index
// order afterwards. Cancellation is cooperative and prompt: workers check
// ctx between trials and stop claiming new indices once it is done, and
// the call then returns ctx's error. Trials already in flight run to
// completion — no partial trial state is ever published.
func ForEachCtx(ctx context.Context, lim Limits, n int, fn func(i int) error) error {
	workers := lim.maxParallel()
	return forEachWorkerN(ctx, lim.Metrics, n, workers, func(_, i int) error { return fn(i) })
}

// forEachWorkerN is the one sanctioned goroutine launcher (see ivnlint's
// goroutinehygiene): a fixed pool of workers claims indices from an
// atomic counter, keeping goroutine count bounded by the cap rather than
// by n. It exposes the claiming worker's identity: fn(worker, i) with
// worker in [0, workers). Any one worker id runs on a single goroutine,
// so per-worker state (scratch buffers, reusable rng children) needs no
// locking. Index assignment to workers is scheduling-dependent — callers
// must not let results depend on which worker ran an index, only on the
// index itself.
func forEachWorkerN(ctx context.Context, m *SchedMetrics, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if m != nil {
		m.noteCap(workers)
	}
	done := ctx.Done()
	errs := make([]error, n)
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						aborted.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if m != nil {
					m.addBusy(1)
				}
				errs[i] = fn(worker, i)
				if m != nil {
					m.addBusy(-1)
					m.addTrials(1)
				}
			}
		}(w)
	}
	wg.Wait()
	// A cancelled run is incomplete by construction: report the context's
	// error rather than a scheduling-dependent subset of trial errors.
	if aborted.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
