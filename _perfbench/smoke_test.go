package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for perfbench when a batch
// workload starts its set-up processes from os.Executable().
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-only") {
		os.Exit(benchMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced
// and traced, against a freshly built ivnsimd, and checks that every
// declared metric is reported and every result checked out.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ivnsimd and runs every workload")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ivnsimd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ivnsimd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ivnsimd: %v\n%s", err, out)
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{
				workload: name, seed: 3, seconds: 0.01, trace: trace, trials: 2,
				daemonBin: bin, workDir: filepath.Join(tmp, "work"),
			}
			res, err := runWorkload(o, run, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, m.Value)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", name, trace, len(res.Metrics), len(defs))
			}
			if trace {
				sum := 0.0
				for _, l := range cpuLayers {
					sum += res.Metrics["cpu_share."+l].Value
				}
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("%s: cpu_share sums to %g, want 1", name, sum)
				}
			}
		}
	}
	if entries, err := os.ReadDir(filepath.Join(tmp, "work")); err == nil && len(entries) != 0 {
		t.Errorf("runs left %d entries in the work directory", len(entries))
	}
}

// TestColdRecheckCoversShardedRequests: the in-process recheck sample of
// every pass holds plain and sharded cold requests.
func TestColdRecheckCoversShardedRequests(t *testing.T) {
	for pass := 0; pass < 3; pass++ {
		plain, sharded := 0, 0
		for i := 0; i < coldPerPass; i++ {
			k := pass*coldPerPass + i
			if !coldRechecked(k) {
				continue
			}
			if coldShards(k) > 0 {
				sharded++
			} else {
				plain++
			}
		}
		if plain == 0 || sharded == 0 {
			t.Errorf("pass %d rechecks %d plain and %d sharded cold results, want some of each", pass, plain, sharded)
		}
	}
}

// TestFailsOutsideTheRepository: the wrapper must fail without printing
// a result when only the benchmark's own files are present.
func TestFailsOutsideTheRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "_perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // directories
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "_perfbench/run.sh", "--workload", "cib_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = root
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("benchmark succeeded without the repository; stdout:\n%s", out)
	}
	if len(out) != 0 {
		t.Errorf("benchmark printed to stdout before failing:\n%s", out)
	}
}
