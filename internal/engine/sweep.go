package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"

	"ivn/internal/rng"
)

// resolveJournal partitions one Trials-level call's indices under the
// run's shard and journal: recorded samples are decoded straight into
// the samples slice (replayed), missing indices the shard owns are
// returned for execution, and missing unowned indices mark the call
// incomplete (a fragment whose reduction will be discarded). A nil
// return call means the plain unjournaled path applies.
func resolveJournal[S any](lim Limits, seed uint64, label string, samples []S) (*journalCall, []int, error) {
	if err := lim.Shard.Validate(); err != nil {
		return nil, nil, err
	}
	if lim.Journal == nil {
		if lim.Shard.Enabled() {
			return nil, nil, fmt.Errorf("engine: sharded run (shard %s) requires a journal", lim.Shard)
		}
		return nil, nil, nil
	}
	c := lim.Journal.beginCall(seed, label)
	toRun := make([]int, 0, len(samples))
	incomplete := false
	for i := range samples {
		if raw, ok := c.lookup(i); ok {
			if err := json.Unmarshal(raw, &samples[i]); err != nil {
				return nil, nil, fmt.Errorf("engine: journal replay %q occ %d trial %d: %w", label, c.occ, i, err)
			}
			c.j.replayed.Add(1)
			continue
		}
		if lim.Shard.Owns(i) {
			toRun = append(toRun, i)
			continue
		}
		incomplete = true
	}
	if incomplete {
		c.j.incomplete.Add(1)
	}
	return c, toRun, nil
}

// recorder journals executed samples for one call, guarding the first
// record with a decode round-trip so a sample type that cannot survive
// JSON (unexported fields marshal to {} silently) fails the run loudly
// instead of corrupting a resume or merge.
type recorder[S any] struct {
	call    *journalCall
	samples []S
	guarded atomic.Bool
}

func (rc *recorder[S]) record(i int) error {
	data, err := json.Marshal(rc.samples[i])
	if err != nil {
		return fmt.Errorf("engine: sample for trial %d of %q does not serialize: %w", i, rc.call.label, err)
	}
	if rc.guarded.CompareAndSwap(false, true) {
		var back S
		if err := json.Unmarshal(data, &back); err != nil {
			return fmt.Errorf("engine: sample for trial %d of %q does not decode back: %w", i, rc.call.label, err)
		}
		if !reflect.DeepEqual(back, rc.samples[i]) {
			return fmt.Errorf("engine: sample type %T does not round-trip through JSON (unexported fields?)", back)
		}
	}
	return rc.call.record(i, data)
}

// TrialsCtx runs n independent trials of measure on the bounded
// scheduler and returns the samples in trial order. Each trial's stream
// is derived with SplitIndexed from a parent seeded with seed, so the
// sample slice — not just its aggregate — is a pure function of (seed,
// label, n) at any GOMAXPROCS or worker cap. Cancellation stops the run
// between trials (no partial samples are returned — a cancelled run
// yields ctx's error), and lim caps this run's parallelism independently
// of any other run in the process.
//
// When lim carries a Journal, recorded samples replay instead of
// re-executing (they never enter the scheduler, so SchedMetrics.Trials
// counts executed trials only), executed samples are recorded, and a
// Shard restricts execution to owned indices — unowned missing indices
// stay zero-valued and mark the call incomplete on the Journal.
//
// The stream r lives in its worker's reusable slot (see Scratches) and is
// valid only until measure returns; measure must not retain it.
func TrialsCtx[S any](ctx context.Context, lim Limits, seed uint64, label string, n int, measure func(trial int, r *rng.Rand) (S, error)) ([]S, error) {
	return TrialsScratchCtx(ctx, lim, seed, label, n, NewScratches(nil), func(trial int, _ any, r *rng.Rand) (S, error) {
		return measure(trial, r)
	})
}

// Scratches is the engine's per-worker trial state for the batched
// evaluation paths: one scratch object and one reusable rng child per
// scheduler worker. Each slot is only ever touched by the single
// goroutine owning that worker id, so no locking is involved; slots are
// created lazily on first use and persist across points (and across
// separate ForEachScratchCtx calls with the same Scratches), which is where
// the allocation savings come from. A Scratches must not be shared
// between concurrently running sweeps.
type Scratches struct {
	mk    func() any
	buf   []any
	rands []rng.Rand
}

// NewScratches builds a scratch set whose slots are created by mk (nil mk
// yields nil scratch values, for callers that only want the per-worker
// rng children).
func NewScratches(mk func() any) *Scratches { return &Scratches{mk: mk} }

// ensure grows the slot slices to cover `workers` entries. Called
// sequentially before workers launch.
func (s *Scratches) ensure(workers int) {
	for len(s.buf) < workers {
		s.buf = append(s.buf, nil)
	}
	for len(s.rands) < workers {
		s.rands = append(s.rands, rng.Rand{})
	}
}

// ForEachScratchCtx runs fn(0..n-1) on the bounded worker pool, handing
// each invocation its worker's persistent scratch object and rng child
// slot. The rng child arrives in whatever state the worker's previous
// trial left it — callers reseed it per index (e.g. via SplitIndexedInto)
// so results stay a pure function of the index, never of worker
// assignment. Error selection and cancellation match ForEachCtx: the
// lowest-indexed failure wins, and workers stop claiming once ctx is
// done.
func ForEachScratchCtx(ctx context.Context, lim Limits, n int, s *Scratches, fn func(i int, scratch any, r *rng.Rand) error) error {
	workers := lim.maxParallel()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	s.ensure(workers)
	return forEachWorkerN(ctx, lim.Metrics, n, workers, func(w, i int) error {
		if s.buf[w] == nil && s.mk != nil {
			s.buf[w] = s.mk()
		}
		return fn(i, s.buf[w], &s.rands[w])
	})
}

// TrialsScratchCtx is the engine's one trial loop; TrialsCtx is this
// with no scratch. Each trial's stream is derived with SplitIndexed(label,
// i) from a parent seeded with seed — written into the worker's reusable
// child, so the derivation allocates nothing — and measure additionally
// receives the worker's persistent scratch object. Samples are identical
// to TrialsCtx for any measure that ignores the scratch, at any
// GOMAXPROCS, and the journal/shard semantics are TrialsCtx's. A
// panicking measure fails the call with an error naming label and the
// trial index.
func TrialsScratchCtx[S any](ctx context.Context, lim Limits, seed uint64, label string, n int, s *Scratches, measure func(trial int, scratch any, r *rng.Rand) (S, error)) ([]S, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: %d trials", n)
	}
	samples := make([]S, n)
	call, toRun, err := resolveJournal(lim, seed, label, samples)
	if err != nil {
		return nil, err
	}
	// Unjournaled runs execute every index (toRun nil = identity);
	// journaled ones execute only toRun and record each sample.
	count := n
	var rec *recorder[S]
	if call != nil {
		count = len(toRun)
		rec = &recorder[S]{call: call, samples: samples}
	}
	parent := rng.New(seed)
	err = ForEachScratchCtx(ctx, lim, count, s, func(k int, scratch any, r *rng.Rand) (err error) {
		i := k
		if toRun != nil {
			i = toRun[k]
		}
		defer recoverTrial(&err, label, i)
		// SplitIndexedInto only reads the parent state — concurrent
		// derivation from the shared parent is race-free.
		parent.SplitIndexedInto(r, label, i)
		var e error
		if samples[i], e = measure(i, scratch, r); e != nil || rec == nil {
			return e
		}
		return rec.record(i)
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// Sweep is a declarative per-point trial schedule: for each sweep point
// (an antenna count, a depth, a fault scale, a scenario) the engine runs
// Trials independent measurements on deterministic streams and reduces
// the samples — in index order — to one typed table row.
//
// Points execute sequentially (trials within a point are what
// parallelize), so Row closures may accumulate cross-point state such as
// a worst-case statistic for a trailing note.
//
// Exactly one of Measure and MeasureScratch must be set. MeasureScratch
// selects the batched path: Prepare (optional) builds a point's invariant
// context once, shared read-only by every trial of that point, and each
// scheduler worker carries a persistent scratch object (NewScratch)
// reused across trials and points.
type Sweep[P, S any] struct {
	// Trials is the per-point trial count.
	Trials int
	// Plan derives the point's rng plan: the parent seed and the
	// SplitIndexed label. Labels/seeds must differ between points unless
	// the experiment deliberately reuses placements across rows (the
	// paired-ablation pattern).
	Plan func(p P) (seed uint64, label string)
	// Measure runs one trial and returns a typed sample.
	Measure func(p P, trial int, r *rng.Rand) (S, error)
	// Row reduces a point's samples (in trial order) to one table row.
	Row func(p P, samples []S) ([]Cell, error)

	// Prepare builds the point's trial-invariant context once per point,
	// before any trial runs. The returned value is handed to every
	// MeasureScratch call of that point and MUST be treated as read-only
	// there: trials run concurrently and share it. Nil Prepare passes a
	// nil context.
	Prepare func(p P) (any, error)
	// NewScratch creates one worker's reusable scratch object (may be nil
	// when MeasureScratch needs only the pooled rng children).
	NewScratch func() any
	// MeasureScratch runs one trial on the batched path: ctx is the
	// point's shared Prepare result, scratch the worker's persistent
	// object. The sample must be a pure function of (p, ctx, trial, r) —
	// never of which worker ran it.
	MeasureScratch func(p P, ctx, scratch any, trial int, r *rng.Rand) (S, error)
}

// RunCtx executes the sweep under a cancellation context and per-run
// limits: ctx is checked between points and between trials (prompt
// cooperative cancellation), and lim caps this sweep's parallelism
// independently of any other run in the process.
func (s Sweep[P, S]) RunCtx(ctx context.Context, lim Limits, points []P) ([][]Cell, error) {
	if (s.Measure == nil) == (s.MeasureScratch == nil) {
		return nil, fmt.Errorf("engine: sweep must set exactly one of Measure and MeasureScratch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var scratches *Scratches
	if s.MeasureScratch != nil {
		scratches = NewScratches(s.NewScratch)
	}
	rows := make([][]Cell, 0, len(points))
	for _, p := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Fragment mode: a shard that does not own all of a point's
		// missing trials leaves the sample set incomplete, and reducing
		// garbage rows would be misleading even in a result that the
		// fragment runner discards. Snapshot the incomplete-call count so
		// such points can skip Row below.
		var preIncomplete int64
		if lim.Journal != nil {
			preIncomplete = lim.Journal.IncompleteCalls()
		}
		seed, label := s.Plan(p)
		var samples []S
		var err error
		if s.Measure != nil {
			samples, err = TrialsCtx(ctx, lim, seed, label, s.Trials, func(trial int, r *rng.Rand) (S, error) {
				return s.Measure(p, trial, r)
			})
		} else {
			var pctx any
			if s.Prepare != nil {
				if pctx, err = s.Prepare(p); err != nil {
					return nil, err
				}
			}
			samples, err = TrialsScratchCtx(ctx, lim, seed, label, s.Trials, scratches, func(trial int, scratch any, r *rng.Rand) (S, error) {
				return s.MeasureScratch(p, pctx, scratch, trial, r)
			})
		}
		if err != nil {
			return nil, err
		}
		if lim.Journal != nil && lim.Journal.IncompleteCalls() > preIncomplete {
			continue
		}
		row, err := s.Row(p, samples)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunIntoCtx executes the sweep under ctx and lim and appends its rows
// to res.
func (s Sweep[P, S]) RunIntoCtx(ctx context.Context, lim Limits, res *Result, points []P) error {
	rows, err := s.RunCtx(ctx, lim, points)
	if err != nil {
		return err
	}
	for _, row := range rows {
		res.AddRow(row...)
	}
	return nil
}
