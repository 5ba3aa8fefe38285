// Command perfbench is the repository's benchmark. It runs one of three
// workloads for a fixed time, checks every result it produces, and
// prints one JSON result line last on stdout:
//
//	perfbench --workload dense_inventory --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports per-layer numbers. See
// README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeed is the seed whose results are pinned by digests.json.
const defaultSeed = 1

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// trials, when > 0, overrides every spec's trial count: a tiny run
	// for smoke tests. Committed digests do not apply to it.
	trials    int
	daemonBin string
	workDir   string
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what --out writes: the result with the machine it ran on.
type report struct {
	Machine  machine `json:"machine"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
}

// workloads maps each workload name to its runner. A runner fills the
// metric set and the checker and returns an error only when the
// benchmark itself cannot go on.
var workloads = map[string]func(o options, ms *metricSet, ck *checker, log io.Writer) error{
	"dense_inventory": runBatch,
	"cib_sweep":       runBatch,
	"daemon_mix":      runDaemon,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o         options
		trace     int
		out       string
		setupOnly bool
		digestOut string
	)
	fs.StringVar(&o.workload, "workload", "", "dense_inventory, cib_sweep or daemon_mix")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.IntVar(&o.trials, "trials", 0, "override every spec's trial count (tiny smoke runs; disables committed digests)")
	fs.StringVar(&o.daemonBin, "daemon-bin", filepath.Join(".bench_build", "bin", "ivnsimd"), "ivnsimd binary for daemon_mix")
	fs.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for journals and profiles")
	fs.StringVar(&out, "out", "", "also write the result with the machine descriptor to this JSON file")
	fs.BoolVar(&setupOnly, "setup-only", false, "run one batch set-up and exit (used to sample setup_s)")
	fs.StringVar(&digestOut, "write-digests", "", "recompute the default-seed digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if digestOut != "" {
		if err := writeDigests(digestOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want dense_inventory, cib_sweep or daemon_mix)\n", o.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if setupOnly {
		if err := batchSetupOnly(o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(o, run, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if out != "" {
		rep := report{Machine: describeMachine(), Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res}
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload in a private scratch directory and
// assembles the result line. Human-readable lines, the machine
// descriptor first, go to log.
func runWorkload(o options, run func(options, *metricSet, *checker, io.Writer) error, log io.Writer) (result, error) {
	m := describeMachine()
	desc, err := json.Marshal(m)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "machine %s\n", desc)
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	o.workDir, err = os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(o.workDir)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	ms := newMetricSet(defs)
	ck := newChecker(o)
	sm := startStealMeter()
	if err := run(o, ms, ck, log); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "host steal %.1f%% of CPU time during the run\n", 100*sm.share())
	if o.trace {
		ms.zeroFill()
	} else if miss := ms.missing(); len(miss) > 0 {
		return result{}, fmt.Errorf("workload %s did not measure %v", o.workload, miss)
	}
	for _, n := range ms.order {
		d := ms.defs[n]
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", n, ms.values[n], d.Unit)
	}
	if ck.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	fmt.Fprintf(log, "  %-34s %14.6g 1 (%d of %d)\n", "failed_frac", float64(ck.failed)/float64(ck.attempted), ck.failed, ck.attempted)
	for _, f := range ck.failures {
		fmt.Fprintf(log, "  FAIL %s\n", f)
	}
	return result{
		Correct:   ck.failed == 0,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics:   ms.export(),
	}, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
