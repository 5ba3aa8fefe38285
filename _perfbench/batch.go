package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// denseExperiments is the dense_inventory pass, run at quick size:
// Gen2 inventory of up to 1000 tags on the event-level channel.
var denseExperiments = []string{"population", "adaptiveq"}

// cibExperiments is the cib_sweep pass, run at full size: the CIB
// physics figures, thousands of small trials that bypass inventory.
var cibExperiments = []string{
	"fig6", "fig9", "fig10a", "fig10b", "fig11", "fig12", "fig13a", "fig13b", "fig13c", "fig13d",
	"invivo", "faultmatrix", "ablation-twostage",
}

// Batch hot-job sampling after each pass: hotSamples samples, each the
// mean of hotRounds re-renders of the pass's results.
const (
	hotSamples = 20
	hotRounds  = 5
)

// batchSetups is the number of set-up processes whose median is setup_s.
const batchSetups = 3

func batchSpecs(ids []string, quick bool, o options) []runspec.Spec {
	specs := make([]runspec.Spec, len(ids))
	for i, id := range ids {
		specs[i] = runspec.Spec{Experiment: id, Seed: o.seed, Quick: quick, Trials: o.trials}
	}
	return specs
}

// specsFor returns a batch workload's specs.
func specsFor(o options) []runspec.Spec {
	if o.workload == "dense_inventory" {
		return batchSpecs(denseExperiments, true, o)
	}
	return batchSpecs(cibExperiments, false, o)
}

// jobStat is one spec's run and render inside a pass.
type jobStat struct {
	id     string
	run    time.Duration
	render time.Duration
	bytes  int
}

// passStat is one pass over the workload's specs.
type passStat struct {
	wall, cpu time.Duration
	steal     float64 // host steal share while the pass ran
	alloc     uint64
	trials    int64
	jobs      []jobStat
	results   []*engine.Result
}

// runPass runs every spec once through runspec.Run and RenderJSON, the
// pipeline of `ivnsim -json`, and checks each result's bytes.
func runPass(specs []runspec.Spec, ck *checker, withAlloc bool) passStat {
	var sched engine.SchedMetrics
	lim := engine.Limits{Metrics: &sched}
	var ps passStat
	var m0 runtime.MemStats
	if withAlloc {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := processCPU()
	t0 := time.Now()
	var buf bytes.Buffer
	for _, s := range specs {
		key := specKey(s)
		buf.Reset()
		j0 := time.Now()
		res, _, err := runspec.Run(context.Background(), lim, s, nil)
		j1 := time.Now()
		if err == nil {
			err = engine.RenderJSON(res, &buf)
		}
		j2 := time.Now()
		if err == nil {
			err = ck.verify(key, buf.Bytes(), s.Seed == defaultSeed)
		}
		ck.attempt(key, err)
		ps.jobs = append(ps.jobs, jobStat{id: s.Experiment, run: j1.Sub(j0), render: j2.Sub(j1), bytes: buf.Len()})
		ps.results = append(ps.results, res)
	}
	ps.wall = time.Since(t0)
	ps.cpu = processCPU() - cpu0
	ps.trials = sched.Trials.Load()
	if withAlloc {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	return ps
}

// batchSetupOnly is one set-up sample in a fresh process: the warm-up
// pass, checked, and exit.
func batchSetupOnly(o options) error {
	ck := newChecker(o)
	runPass(specsFor(o), ck, false)
	if ck.failed > 0 {
		return fmt.Errorf("set-up pass failed: %v", ck.failures)
	}
	return nil
}

// setupSamples measures setup_s for a batch workload: batchSetups fresh
// processes, each timed from this one, from launch to the end of its
// checked warm-up pass.
func setupSamples(o options, ck *checker) []setupSample {
	exe, err := os.Executable()
	if !ck.attempt("locate own executable", err) {
		return nil
	}
	var samples []setupSample
	for i := 0; i < batchSetups; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
			"--trials", strconv.Itoa(o.trials), "--setup-only")
		cmd.Stderr = os.Stderr
		sm := startStealMeter()
		t0 := time.Now()
		err := cmd.Run()
		if ck.attempt("set-up process", err) {
			samples = append(samples, setupSample{time.Since(t0).Seconds(), sm.share()})
		}
	}
	return samples
}

// runBatch runs dense_inventory or cib_sweep.
func runBatch(o options, ms *metricSet, ck *checker, log io.Writer) error {
	specs := specsFor(o)
	if o.trace {
		return runBatchTraced(o, specs, ms, ck, log)
	}
	setups := setupSamples(o, ck)
	if len(setups) == 0 {
		return errors.New("no set-up process succeeded")
	}
	runPass(specs, ck, false) // this process's own warm-up, untimed

	var passes []passStat
	var hot [][]float64
	quiet := 0
	for start := time.Now(); keepMeasuring(start, o.seconds, len(passes), quiet); {
		sm := startStealMeter()
		p := runPass(specs, ck, false)
		hot = append(hot, reRender(p.results, specs, ck))
		if p.steal = sm.share(); p.steal <= quietSteal {
			quiet++
		}
		passes = append(passes, p)
	}

	keep := quietOnes(len(passes), minQuietPasses, func(i int) float64 { return passes[i].steal })
	var walls, cpus, rates, hotMS []float64
	for _, i := range keep {
		p := passes[i]
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rates = append(rates, 1/p.wall.Seconds())
		hotMS = append(hotMS, hot[i]...)
	}
	ms.set("setup_s", setupSeconds(setups))
	ms.set("wall_s", Median(walls))
	ms.set("cpu_s", Median(cpus))
	ms.set("max_rss_mb", peakRSSMB(os.Getpid()))
	ms.set("jobs_per_s", Median(rates))
	ms.set("cold_p50_ms", 1000*Quantile(walls, 0.5))
	ms.set("hot_p50_ms", Quantile(hotMS, 0.5))
	fmt.Fprintf(log, "passes %d, %d used (host steal at most 3%%, else the least disturbed); set-ups %d\n", len(passes), len(keep), len(setups))
	fmt.Fprintf(log, "cold jobs (one pass): %s\n", Summarize(walls).String("s"))
	fmt.Fprintf(log, "hot jobs (re-render of a pass): %s\n", Summarize(hotMS).String("ms"))
	return nil
}

// reRender samples batch hot jobs: hotSamples times it re-renders the
// pass's results hotRounds times over and records the mean round. Each
// sample starts from a collected heap, and its rounds allocate well
// below the collector's heap goal, so no collection runs inside it: a
// single hot job rarely meets one, and whether a sample overlapped one
// would otherwise decide its time. The first round's bytes are checked.
func reRender(results []*engine.Result, specs []runspec.Spec, ck *checker) []float64 {
	var buf bytes.Buffer
	var samples []float64
	for n := 0; n < hotSamples; n++ {
		runtime.GC()
		t0 := time.Now()
		for r := 0; r < hotRounds; r++ {
			for i, res := range results {
				if res == nil {
					continue
				}
				buf.Reset()
				err := engine.RenderJSON(res, &buf)
				if n == 0 && r == 0 {
					if err == nil {
						err = ck.verify(specKey(specs[i]), buf.Bytes(), false)
					}
					ck.attempt(specKey(specs[i])+" re-render", err)
				}
			}
		}
		samples = append(samples, ms2(time.Since(t0))/hotRounds)
	}
	return samples
}

// runBatchTraced is the traced batch run: untraced passes alternate
// with passes under the CPU profiler, then the layer probes run.
func runBatchTraced(o options, specs []runspec.Spec, ms *metricSet, ck *checker, log io.Writer) error {
	runPass(specs, ck, false) // warm-up
	var plain, traced []passStat
	prof := &layerProfile{dir: o.workDir}
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < o.seconds {
		plain = append(plain, runPass(specs, ck, true))
		if err := prof.start(); err != nil {
			return err
		}
		p := runPass(specs, ck, false)
		if err := prof.stop(); err != nil {
			return err
		}
		traced = append(traced, p)
	}

	var eff, alloc, runS, renderMS, plainWall, tracedWall []float64
	perExp := map[string][]float64{}
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
		eff = append(eff, p.cpu.Seconds()/(p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		alloc = append(alloc, float64(p.alloc)/1e6)
		var run, render time.Duration
		for _, j := range p.jobs {
			run += j.run
			render += j.render
			perExp[j.id] = append(perExp[j.id], (j.run + j.render).Seconds())
		}
		runS = append(runS, run.Seconds())
		renderMS = append(renderMS, ms2(render))
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	bytesPerPass := 0
	for _, j := range plain[0].jobs {
		bytesPerPass += j.bytes
	}
	ms.set("engine.trials", float64(plain[0].trials))
	ms.set("engine.parallel_eff", Median(eff))
	ms.set("alloc_mb", Median(alloc))
	for id, v := range perExp {
		ms.set("exp."+id+".wall_s", Median(v))
	}
	ms.set("runspec.run_s", Median(runS))
	ms.set("render.json_ms", Median(renderMS))
	ms.set("render.bytes", float64(bytesPerPass))
	ms.set("trace_overhead", Median(tracedWall)/Median(plainWall))
	if err := prof.export(ms); err != nil {
		return err
	}
	fmt.Fprintf(log, "passes %d plain, %d profiled; profiled CPU %.2f s; largest in other:%s\n", len(plain), len(traced), float64(prof.total)/1e9, prof.otherSummary(5))

	if err := probeRunspec(o, ms, ck); err != nil {
		return err
	}
	if o.workload == "dense_inventory" {
		return probeSession(o, ms, ck)
	}
	return probePhysics(o, ms, ck)
}

func ms2(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	v := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
