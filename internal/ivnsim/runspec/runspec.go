// Package runspec is the one run pipeline shared by the ivnsim CLI and
// the ivnsimd daemon: a validated, canonically-serializable description
// of one experiment run (Spec), the executor that turns it into a typed
// engine.Result under a cancellation context and per-run scheduler
// limits, and the multi-format output fan-out.
//
// The canonical form matters beyond tidiness: the daemon's result cache
// is keyed by sha256 over Canonical() plus the module build stamp, so two
// requests that mean the same run — regardless of JSON field order,
// whitespace, or an empty-vs-nil fault-scale slice — hit the same cache
// entry, and any build that could change results misses it.
package runspec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
	"ivn/internal/session"
)

// Spec describes one experiment run. The zero value is invalid; at
// minimum Experiment must name a registered experiment. Field semantics
// match the CLI flags of the same names.
type Spec struct {
	// Experiment is the registry id ("fig9", "population", ...).
	Experiment string `json:"experiment"`
	// Seed drives every random draw; equal specs reproduce identical
	// results byte for byte.
	Seed uint64 `json:"seed"`
	// Trials overrides the experiment's default trial count when > 0.
	Trials int `json:"trials,omitempty"`
	// Quick selects the reduced CI-sized workload.
	Quick bool `json:"quick,omitempty"`
	// FaultScales overrides the faultmatrix intensity sweep (multiples of
	// the default fault config; 0 = fault-free).
	FaultScales []float64 `json:"fault_scales,omitempty"`
	// Trace collects the session-layer event stream alongside the result.
	Trace bool `json:"trace,omitempty"`
	// Shard, when non-nil, makes this spec a work fragment: only the
	// owned stride of each Trials call executes, and the run's output is
	// its journal rather than a table (see RunFragment/Merge). Shard is
	// run *content* — it stays in Canonical and Key, so a fragment's key
	// never collides with the whole run's or another fragment's.
	Shard *engine.Shard `json:"shard,omitempty"`
	// Journal is the checkpoint-journal path. Unlike Shard it is an
	// execution detail — where to checkpoint, not what to compute — so
	// Normalize strips it and it never reaches Canonical or Key.
	Journal string `json:"journal,omitempty"`
	// Resume reloads Journal instead of truncating it, re-executing only
	// trials the journal lacks. Execution detail like Journal: stripped
	// by Normalize.
	Resume bool `json:"resume,omitempty"`
}

// maxTrials bounds Spec.Trials: 50 times the largest default trial count
// (2000). The engine pre-sizes per-trial storage, so an unbounded count
// could abort the process before the first trial ran. A cost model over
// trials, sweep points and population size would bound the work itself.
const maxTrials = 100_000

// Validate checks the spec against the experiment registry and the
// engine's parameter contracts. A valid spec is guaranteed to resolve in
// Run without an argument error (trial-level failures can still occur).
func (s Spec) Validate() error {
	if s.Experiment == "" {
		return fmt.Errorf("runspec: missing experiment id")
	}
	// ByID's error already lists the valid ids; the CLI and the daemon
	// print it as is, behind their own prefix.
	if _, err := ivnsim.ByID(s.Experiment); err != nil {
		return err
	}
	if s.Trials < 0 {
		return fmt.Errorf("runspec: negative trials %d", s.Trials)
	}
	if s.Trials > maxTrials {
		return fmt.Errorf("runspec: %d trials is over the limit of %d", s.Trials, maxTrials)
	}
	for _, v := range s.FaultScales {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("runspec: fault scale %v is not finite", v)
		}
		if v < 0 {
			return fmt.Errorf("runspec: fault scale %v is negative", v)
		}
	}
	if s.Shard != nil {
		if err := s.Shard.Validate(); err != nil {
			return err
		}
		if !s.Shard.Enabled() {
			return fmt.Errorf("runspec: shard count %d must be >= 2 (omit shard for a whole run)", s.Shard.Count)
		}
		if s.Journal == "" {
			return fmt.Errorf("runspec: sharded run requires a journal path")
		}
	}
	if s.Resume && s.Journal == "" {
		return fmt.Errorf("runspec: resume requires a journal path")
	}
	if s.Trace && (s.Journal != "" || s.Shard != nil) {
		// Replayed trials execute nothing, so a journaled run's trace
		// would silently lack their events — reject rather than emit an
		// incomplete stream.
		return fmt.Errorf("runspec: trace cannot be combined with journal/shard execution")
	}
	return nil
}

// Normalize returns the spec in canonical form: representations that
// mean the same run (nil vs empty fault-scale slice) collapse to one,
// and execution details that do not change what is computed — the
// journal path and the resume flag — are stripped. Shard stays: a
// fragment computes different content than the whole run.
func (s Spec) Normalize() Spec {
	if len(s.FaultScales) == 0 {
		s.FaultScales = nil
	}
	s.Journal = ""
	s.Resume = false
	return s
}

// Whole returns the unsharded, unjournaled run this spec contributes
// to — the spec whose outputs a merge must reproduce byte for byte.
func (s Spec) Whole() Spec {
	s.Shard = nil
	s.Journal = ""
	s.Resume = false
	return s
}

// Canonical returns the spec's canonical serialization: normalized, with
// a fixed field order (struct declaration order) and shortest-round-trip
// float encoding, so equal runs serialize to equal bytes. It is valid
// JSON and round-trips through ParseJSON.
func (s Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Normalize())
}

// buildStamp identifies the code that would execute a run: module path
// and version, plus the VCS revision when the binary carries one. Baked
// into cache keys so results computed by a different build never
// masquerade as fresh.
func buildStamp() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown-build"
	}
	var sb strings.Builder
	sb.WriteString(info.Main.Path)
	sb.WriteByte('@')
	sb.WriteString(info.Main.Version)
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" || kv.Key == "vcs.modified" {
			sb.WriteByte(' ')
			sb.WriteString(kv.Key)
			sb.WriteByte('=')
			sb.WriteString(kv.Value)
		}
	}
	return sb.String()
}

// Key returns the spec's content key: hex sha256 over the canonical
// serialization and the module build stamp. Two specs share a key iff
// they describe the same run of the same code, which is exactly the
// contract a result cache needs.
func (s Spec) Key() (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	// hash.Hash.Write never returns an error (its contract), hence the
	// explicit discards.
	h := sha256.New()
	_, _ = h.Write(canon)
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(buildStamp()))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ParseJSON decodes a spec from JSON, rejecting unknown fields so a
// mistyped option fails loudly instead of silently running the default.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("runspec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("runspec: trailing data after spec document")
	}
	return s, nil
}

// ParseScales parses a comma-separated list of non-negative fault-scale
// multiples (the CLI's -faultscales flag); empty means "use the
// experiment's default sweep".
func ParseScales(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %v", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("scale %q is negative", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// Run executes the spec: experiment lookup, option threading, and the
// trial engine, under ctx (prompt cooperative cancellation between
// trials) and lim (per-run parallelism cap + scheduler metrics).
//
// tlog collects the session trace when Spec.Trace is set: pass nil to
// have Run allocate one per run (the daemon's shape), or pass a shared
// log to merge several runs' spans into one stream (the CLI's -trace
// with -run all). The returned log is the one that collected this run,
// nil when tracing was off.
func Run(ctx context.Context, lim engine.Limits, spec Spec, tlog *session.TraceLog) (*engine.Result, *session.TraceLog, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if spec.Shard != nil {
		// A fragment's product is its journal, not a table: route it
		// through RunFragment, and recombine fragments with Merge.
		return nil, nil, fmt.Errorf("runspec: sharded spec (shard %s) runs as a fragment — use RunFragment and Merge", spec.Shard)
	}
	if spec.Journal != "" {
		// Unsharded checkpoint journal: the run owns every trial, so the
		// result is complete; recorded entries let a killed run resume.
		j, f, err := OpenJournal(spec)
		if err != nil {
			return nil, nil, err
		}
		lim.Journal = j
		res, tl, rerr := Run(ctx, lim, spec.Whole(), tlog)
		if cerr := f.Close(); cerr != nil && rerr == nil {
			return nil, tl, fmt.Errorf("runspec: close journal %s: %w", spec.Journal, cerr)
		}
		return res, tl, rerr
	}
	e, err := ivnsim.ByID(spec.Experiment)
	if err != nil {
		return nil, nil, err
	}
	if spec.Trace && tlog == nil {
		tlog = session.NewTraceLog()
	}
	if !spec.Trace {
		// The spec is the single source of truth for what a run produces
		// (its key feeds the cache): an attached log without Trace set
		// would make two byte-equal specs produce different artifacts.
		tlog = nil
	}
	cfg := ivnsim.Config{
		Seed:        spec.Seed,
		Trials:      spec.Trials,
		Quick:       spec.Quick,
		FaultScales: spec.FaultScales,
		Trace:       tlog,
		Ctx:         ctx,
		Limits:      lim,
	}
	res, err := e.Run(cfg)
	if err != nil {
		return nil, tlog, err
	}
	return res, tlog, nil
}

// WriteOutputs writes one file per registered renderer — <id>.txt,
// <id>.csv and <id>.json — under dir. Every failure is reported with the
// path it concerns, so a partially-written fan-out names exactly which
// artifact cannot be trusted.
func WriteOutputs(res *engine.Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runspec: output dir %s: %w", dir, err)
	}
	for _, out := range []struct {
		ext    string
		render engine.Renderer
	}{
		{"txt", engine.RenderText}, {"csv", engine.RenderCSV}, {"json", engine.RenderJSON},
	} {
		path := filepath.Join(dir, res.ID+"."+out.ext)
		if err := writeOne(res, out.render, path); err != nil {
			return fmt.Errorf("runspec: write %s: %w", path, err)
		}
	}
	return nil
}

// writeOne renders res to path, reporting the first error of the
// create/render/close sequence.
func writeOne(res *engine.Result, render engine.Renderer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(res, f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
