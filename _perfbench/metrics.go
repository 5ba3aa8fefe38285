package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. The two lists below are the
// benchmark's contract and BENCHMARK.json mirrors them
// (TestBenchmarkJSONMatchesCode keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd metrics are measured with tracing off, on every workload.
// For a batch workload a job is one pass, so its cold latency is the
// pass's wall time, and a hot job re-renders every Result of a pass, the
// batch pipeline's only path that does not reach the engine. Latency
// tails are printed with their sample counts but not gated: a batch run
// has too few passes for any percentile with ten samples beyond it, and
// on a shared 2-vCPU host the daemon's tails spread more from run to run
// than any bound the gate allows.
//
// The bounds are the widest allowed because the host can be that noisy:
// on a shared 2-vCPU virtual machine (the one baseline.json records)
// every timing, CPU time included, drifts by up to about 30% over
// minutes, and ten-run sets spread by up to about 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.15},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"hot_p50_ms", "ms", "lower", 0.25},
}

// batchExperiments are the experiments the two batch workloads run;
// each gets an exp.<id>.wall_s metric.
var batchExperiments = append(append([]string(nil), denseExperiments...), cibExperiments...)

// cpuLayers are the buckets of the cpu_share.<layer> metrics.
var cpuLayers = []string{
	"dsp", "phasor", "core", "em", "radio", "tag", "reader", "link", "gen2", "session",
	"engine", "ivnsim", "runspec", "service", "pool", "rng", "net_http", "runtime", "other",
}

// perLayer metrics come from the traced run. A layer that a workload
// does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "engine.trials", Unit: "count", Better: "lower"},
		{Name: "engine.parallel_eff", Unit: "1", Better: "higher"},
		{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	}
	for _, id := range batchExperiments {
		defs = append(defs, metricDef{Name: "exp." + id + ".wall_s", Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "session.inventory_ms.n16", Unit: "ms", Better: "lower"},
		metricDef{Name: "session.inventory_ms.n256", Unit: "ms", Better: "lower"},
		metricDef{Name: "session.inventory_ms.n1000", Unit: "ms", Better: "lower"},
		metricDef{Name: "session.channel_ms.n1000", Unit: "ms", Better: "lower"},
		metricDef{Name: "session.ns_per_command.n1000", Unit: "ns", Better: "lower"},
		metricDef{Name: "session.commands", Unit: "count", Better: "lower"},
		metricDef{Name: "session.slots", Unit: "count", Better: "lower"},
		metricDef{Name: "session.singles", Unit: "count", Better: "higher"},
		metricDef{Name: "session.collisions", Unit: "count", Better: "lower"},
		metricDef{Name: "session.query_adjusts", Unit: "count", Better: "lower"},
		metricDef{Name: "session.reads", Unit: "count", Better: "higher"},
		metricDef{Name: "session.slot_efficiency", Unit: "1", Better: "higher"},
		metricDef{Name: "scenario.realize_us", Unit: "us", Better: "lower"},
		metricDef{Name: "link.for_trial_us", Unit: "us", Better: "lower"},
		metricDef{Name: "link.downlink_coeffs_us", Unit: "us", Better: "lower"},
		metricDef{Name: "phasor.peak_refined_us", Unit: "us", Better: "lower"},
		metricDef{Name: "core.transmit_command_us", Unit: "us", Better: "lower"},
		metricDef{Name: "tag.backscatter_us", Unit: "us", Better: "lower"},
		metricDef{Name: "reader.decode_uplink_us", Unit: "us", Better: "lower"},
		metricDef{Name: "runspec.run_s", Unit: "s", Better: "lower"},
		metricDef{Name: "render.json_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "render.bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "runspec.key_us", Unit: "us", Better: "lower"},
		metricDef{Name: "runspec.shard_overhead", Unit: "1", Better: "lower"},
		metricDef{Name: "service.cache_hit_rate", Unit: "1", Better: "higher"},
		metricDef{Name: "service.jobs_failed", Unit: "count", Better: "lower"},
		metricDef{Name: "service.shard_subjobs", Unit: "count", Better: "lower"},
		metricDef{Name: "service.journal_recorded", Unit: "count", Better: "lower"},
		metricDef{Name: "service.journal_replayed", Unit: "count", Better: "lower"},
		metricDef{Name: "http.post_us.hot", Unit: "us", Better: "lower"},
		metricDef{Name: "http.result_us.hot", Unit: "us", Better: "lower"},
		metricDef{Name: "service.submit_hot_us", Unit: "us", Better: "lower"},
		metricDef{Name: "service.job_overhead_ms", Unit: "ms", Better: "lower"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: "cpu_share." + l, Unit: "1", Better: "lower"})
	}
	return append(defs, metricDef{Name: "trace_overhead", Unit: "1", Better: "lower"})
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a declared list.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, values: map[string]float64{}}
	for _, d := range defs {
		if !validName(d.Name) {
			panic(fmt.Sprintf("perfbench: invalid metric name %q", d.Name))
		}
		ms.defs[d.Name] = d
		ms.order = append(ms.order, d.Name)
	}
	return ms
}

// set records a value. Setting an undeclared name is a bug in the
// benchmark, so it panics.
func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.defs[name]; !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	ms.values[name] = v
}

// missing lists declared metrics that were not set, sorted.
func (ms *metricSet) missing() []string {
	var out []string
	for _, n := range ms.order {
		if _, ok := ms.values[n]; !ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// zeroFill sets every unset metric to 0: the layer was not measured on
// this workload.
func (ms *metricSet) zeroFill() {
	for _, n := range ms.missing() {
		ms.values[n] = 0
	}
}

// export returns the result-line form of the set. A value without
// samples (NaN, only when every operation behind it failed, which the
// result reports as incorrect) is written as 0, which JSON can carry.
func (ms *metricSet) export() map[string]metric {
	out := make(map[string]metric, len(ms.values))
	for n, v := range ms.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[n] = metric{Value: v, Unit: ms.defs[n].Unit}
	}
	return out
}
