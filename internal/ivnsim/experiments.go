// Package ivnsim is IVN's experiment layer: it wires scenarios, the CIB
// beamformer, the baselines, the tag models and the out-of-band reader
// into the measurements the paper reports, and expresses each figure or
// table as a declarative spec over the trial engine (internal/engine).
// Every experiment is registered under the paper's figure/table id (see
// Registry), returns a typed engine.Result, and is deterministic for a
// given seed.
package ivnsim

import (
	"context"
	"fmt"
	"sort"

	"ivn/internal/core"
	"ivn/internal/engine"
	"ivn/internal/session"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives every random draw; equal seeds reproduce identical
	// tables.
	Seed uint64
	// Trials overrides the experiment's default trial count when > 0.
	Trials int
	// Quick shrinks the workload for CI-style runs.
	Quick bool
	// FaultScales overrides the fault-matrix intensity sweep when
	// non-empty (multiples of the default fault config; 0 = fault-free).
	FaultScales []float64
	// Trace, when non-nil, collects the typed event streams of every
	// traced trial, one span per trial (e.g. "fig12/0007"). Nil is free;
	// the serialized log is byte-identical at any GOMAXPROCS.
	Trace *session.TraceLog
	// Ctx, when non-nil, cancels the run cooperatively: the scheduler
	// checks it between trials and between sweep points, so a cancelled
	// run returns the context's error promptly without publishing a
	// partial table. Nil means context.Background(). Cancellation never
	// changes the rows of a run that completes.
	Ctx context.Context
	// Limits is this run's scheduler configuration — parallelism cap and
	// optional metrics — carried per run so concurrent jobs in one
	// process (daemon workloads) stay independent. The zero value
	// inherits the process defaults.
	Limits engine.Limits
}

// Context resolves the run's cancellation context (nil → Background).
func (c Config) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// monteCarlo binds core's Monte-Carlo fan-out seam to this run's worker
// pool, under its context and parallelism cap. The run's Metrics stays
// off, so engine.trials counts experiment trials, not phase draws.
func (c Config) monteCarlo() core.ForEach {
	ctx, lim := c.Context(), engine.Limits{MaxParallel: c.Limits.MaxParallel}
	return func(n int, fn func(i int) error) error {
		return engine.ForEachCtx(ctx, lim, n, fn)
	}
}

// trials resolves the effective trial count.
func (c Config) trials(def, quick int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quick
	}
	return def
}

// Experiment reproduces one of the paper's figures or tables.
type Experiment struct {
	// ID is the registry key (e.g. "fig9").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Paper summarizes the published result the output should be compared
	// against.
	Paper string
	// Run executes the experiment through the trial engine and returns
	// its typed result.
	Run func(Config) (*engine.Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("ivnsim: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Registry returns every experiment, sorted by id.
func Registry() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("unknown experiment %q (use one of %v)", id, ids())
	}
	return e, nil
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
