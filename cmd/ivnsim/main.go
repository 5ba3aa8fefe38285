// Command ivnsim runs IVN's evaluation experiments and prints the rows of
// the corresponding paper figure or table.
//
// Usage:
//
//	ivnsim -list
//	ivnsim -run fig9 [-seed 1] [-trials 150] [-csv|-json]
//	ivnsim -run all [-quick] [-parallel 4]
//	ivnsim -run fig12 -trace events.jsonl
//	ivnsim -run fig9 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Sharded execution splits one run's trials across processes (or
// machines sharing a filesystem), each fragment checkpointing to its
// own journal; the merge renders the exact bytes of the unsharded run:
//
//	ivnsim -run fig9 -shard 0/2 -journal frags/fig9.s0.jsonl
//	ivnsim -run fig9 -shard 1/2 -journal frags/fig9.s1.jsonl
//	ivnsim -merge frags -json
//
// A killed run (sharded or not) resumes from its journal, re-executing
// only trials the journal lacks:
//
//	ivnsim -run fig9 -journal fig9.jsonl
//	ivnsim -run fig9 -journal fig9.jsonl -resume
//
// The CLI and the ivnsimd daemon share one run pipeline
// (internal/ivnsim/runspec): each invocation builds a validated RunSpec
// from the flags and executes it exactly the way a daemon job would, so
// the two fronts can never drift apart in what a run means.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/session"
)

func main() {
	os.Exit(run())
}

// run holds the real main body so deferred profile writers execute before
// the process exits (os.Exit in main would skip them). A failed heap
// profile write turns a successful exit into 1.
func run() (code int) {
	var (
		list        = flag.Bool("list", false, "list available experiments")
		runID       = flag.String("run", "", "experiment id to run, or \"all\"")
		seed        = flag.Uint64("seed", 1, "random seed (equal seeds reproduce identical tables)")
		trials      = flag.Int("trials", 0, "override the experiment's trial count (0 = default)")
		quick       = flag.Bool("quick", false, "reduced workload")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut     = flag.Bool("json", false, "emit JSON (typed cells) instead of aligned text")
		parallel    = flag.Int("parallel", 0, "cap concurrent trial workers (0 = GOMAXPROCS; never changes results)")
		outDir      = flag.String("out", "", "also write each result to DIR/<id>.txt, DIR/<id>.csv and DIR/<id>.json")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to FILE")
		memProfile  = flag.String("memprofile", "", "write a heap profile to FILE on exit")
		faultScales = flag.String("faultscales", "", "comma-separated fault-intensity multiples for faultmatrix (e.g. 0,1,4)")
		traceFile   = flag.String("trace", "", "write the session-layer event stream to FILE as JSON lines")
		shardFlag   = flag.String("shard", "", "execute only fragment I/N of the run's trials (requires -journal; the journal is the output)")
		journalFile = flag.String("journal", "", "checkpoint completed trials to FILE as JSONL")
		resume      = flag.Bool("resume", false, "reload -journal and re-execute only trials it lacks")
		mergeDir    = flag.String("merge", "", "merge the shard journals in DIR into the whole run's table (byte-identical to an unsharded run)")
	)
	flag.Parse()

	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "ivnsim: -csv and -json are mutually exclusive")
		return 2
	}
	shard, err := engine.ParseShard(*shardFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsim: -shard: %v\n", err)
		return 2
	}
	if *mergeDir != "" && (*runID != "" || *shardFlag != "" || *journalFile != "" || *resume || *traceFile != "") {
		fmt.Fprintln(os.Stderr, "ivnsim: -merge stands alone (the fragments' journals already pin the run)")
		return 2
	}
	if shard.Enabled() && *journalFile == "" {
		fmt.Fprintln(os.Stderr, "ivnsim: -shard requires -journal (a fragment's output is its journal)")
		return 2
	}
	if *resume && *journalFile == "" {
		fmt.Fprintln(os.Stderr, "ivnsim: -resume requires -journal")
		return 2
	}
	if *journalFile != "" {
		if *runID == "" || *runID == "all" {
			fmt.Fprintln(os.Stderr, "ivnsim: -journal checkpoints a single run: pass one experiment via -run")
			return 2
		}
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "ivnsim: -trace cannot be combined with -journal (replayed trials emit no events)")
			return 2
		}
	}
	// The cap is carried per run (engine.Limits), not set process-wide:
	// the CLI is a one-job process, but the shared pipeline keeps the
	// daemon's independent-jobs contract intact.
	lim := engine.Limits{MaxParallel: *parallel}

	scales, err := runspec.ParseScales(*faultScales)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsim: -faultscales: %v\n", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	// The heap profile and the trace are written after the run, but their
	// files are created now so a bad path fails before any work is done.
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: memprofile: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			err := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "ivnsim: memprofile: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	var traceOut *os.File
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: trace: %v\n", err)
			return 1
		}
		defer f.Close() // a no-op after writeTrace's checked Close
		traceOut = f
	}

	render := engine.RenderText
	switch {
	case *csv:
		render = engine.RenderCSV
	case *jsonOut:
		render = engine.RenderJSON
	}

	// One log across every experiment of the invocation: span keys carry
	// the experiment id, and the JSONL form sorts spans, so -run all with
	// -trace is as deterministic as a single experiment.
	var tlog *session.TraceLog
	if *traceFile != "" {
		tlog = session.NewTraceLog()
	}

	// specFor maps the flag set onto the shared RunSpec for one experiment.
	specFor := func(id string) runspec.Spec {
		return runspec.Spec{
			Experiment:  id,
			Seed:        *seed,
			Trials:      *trials,
			Quick:       *quick,
			FaultScales: scales,
			Trace:       *traceFile != "",
		}
	}

	switch {
	case *mergeDir != "":
		if err := runMerge(*mergeDir, lim, *jsonOut, render, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: merge: %v\n", err)
			return 1
		}
		return 0
	case shard.Enabled():
		if *runID == "" || *runID == "all" {
			fmt.Fprintln(os.Stderr, "ivnsim: -shard fragments a single run: pass one experiment via -run")
			return 2
		}
		spec := specFor(*runID)
		spec.Shard = &shard
		spec.Journal = *journalFile
		spec.Resume = *resume
		if err := runFragment(spec, lim); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", spec.Experiment, err)
			return 1
		}
		return 0
	case *list:
		for _, e := range ivnsim.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
			fmt.Printf("%-20s paper: %s\n", "", e.Paper)
		}
	case *runID == "all":
		for _, e := range ivnsim.Registry() {
			if err := runOne(specFor(e.ID), lim, *jsonOut, render, *outDir, tlog); err != nil {
				fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", e.ID, err)
				return 1
			}
		}
	case *runID != "":
		spec := specFor(*runID)
		spec.Journal = *journalFile
		spec.Resume = *resume
		if err := spec.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: %v\n", err)
			return 2
		}
		if err := runOne(spec, lim, *jsonOut, render, *outDir, tlog); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", spec.Experiment, err)
			return 1
		}
	default:
		flag.Usage()
		return 2
	}

	if traceOut != nil {
		if err := writeTrace(tlog, traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// runFragment executes one shard of a run, leaving its journal as the
// product. The stderr summary is the fragment's machine-checkable
// receipt: the e2e tests parse the recorded/replayed counts.
func runFragment(spec runspec.Spec, lim engine.Limits) error {
	//ivn:allow determinism wall-clock only feeds the stderr elapsed-time diagnostic, never a table
	start := time.Now()
	j, err := runspec.RunFragment(context.Background(), lim, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "(%s shard %s: recorded %d, replayed %d, journal %s, in %v)\n",
		spec.Experiment, spec.Shard, j.Recorded(), j.Replayed(), spec.Journal,
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runMerge recombines a directory of shard journals into the whole
// run's result and renders it exactly as an unsharded invocation would.
func runMerge(dir string, lim engine.Limits, jsonOut bool, render engine.Renderer, outDir string) error {
	//ivn:allow determinism wall-clock only feeds the stderr elapsed-time diagnostic, never a table
	start := time.Now()
	paths, err := runspec.FindFragments(dir)
	if err != nil {
		return err
	}
	res, spec, err := runspec.Merge(context.Background(), lim, paths)
	if err != nil {
		return err
	}
	if err := render(res, os.Stdout); err != nil {
		return err
	}
	if outDir != "" {
		if err := runspec.WriteOutputs(res, outDir); err != nil {
			return err
		}
	}
	// Match runOne's footer placement so output pipelines treat a merged
	// run exactly like a direct one.
	if !jsonOut {
		fmt.Printf("(%s in %v, seed %d)\n\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	} else {
		fmt.Fprintf(os.Stderr, "(%s in %v, seed %d)\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	}
	return nil
}

// writeTrace serializes the collected event log as JSON lines into f
// and closes it.
func writeTrace(tlog *session.TraceLog, f *os.File) error {
	if err := tlog.WriteJSONL(f); err != nil {
		return err
	}
	return f.Close()
}

// runOne executes one spec through the shared pipeline, renders it to
// stdout, and fans the result out to -out files. Any per-file write
// failure surfaces with its path and fails the invocation.
func runOne(spec runspec.Spec, lim engine.Limits, jsonOut bool, render engine.Renderer, outDir string, tlog *session.TraceLog) error {
	//ivn:allow determinism wall-clock only feeds the stderr elapsed-time diagnostic, never a table
	start := time.Now()
	res, _, err := runspec.Run(context.Background(), lim, spec, tlog)
	if err != nil {
		return err
	}
	if err := render(res, os.Stdout); err != nil {
		return err
	}
	if outDir != "" {
		if err := runspec.WriteOutputs(res, outDir); err != nil {
			return err
		}
	}
	if !jsonOut {
		fmt.Printf("(%s in %v, seed %d)\n\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	} else {
		fmt.Fprintf(os.Stderr, "(%s in %v, seed %d)\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	}
	return nil
}
