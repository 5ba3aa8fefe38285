package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Summarize must sort
	}
	return xs
}

func TestSummarizeTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailP float64
	}{
		{0, 0}, {1, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		s := Summarize(seq(tc.n))
		if s.N != tc.n || s.TailP != tc.tailP {
			t.Errorf("n=%d: got N=%d tail p%g, want p%g", tc.n, s.N, s.TailP, tc.tailP)
		}
		if tc.n > 0 && s.P50 != (float64(tc.n)+1)/2 {
			t.Errorf("n=%d: median %g, want %g", tc.n, s.P50, (float64(tc.n)+1)/2)
		}
		if s.TailP > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("n=%d: p%g has %d samples beyond it, want ≥ %d", tc.n, s.TailP, beyond, minTail)
			}
		}
	}
}

func TestQuantileInterpolatesInclusive(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v, %g) = %g, want %g", xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no samples must be NaN")
	}
	if xs[0] != 4 {
		t.Error("Quantile reordered its input")
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"wall_s", "cpu_share.net_http", "exp.ablation-twostage.wall_s", "session.inventory_ms.n1000", "9lives"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".wall", "-x", "wall s", "wall/s", "p95(ms)", "naïve", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestDeclaredMetricsAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) {
			t.Errorf("metric %q: invalid name", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if !unitGrammar.MatchString(d.Unit) {
			t.Errorf("metric %q: invalid unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("workload %q: invalid name", name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json at the repository
// root in step with the metrics and workloads the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, code runs %v", names, want)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ivn/internal/session.(*medium).broadcastClean": "session",
		"ivn/internal/gen2.(*TagLogic).HandleCommand":   "gen2",
		"ivn/internal/ivnsim/runspec.Run":               "runspec",
		"ivn/internal/ivnsim.runPopulation.func1":       "ivnsim",
		"ivn/internal/engine.TrialsCtx[go.shape.int]":   "engine",
		"ivn/internal/baseline.PeakReceivedPower":       "other",
		"net/http.(*conn).serve":                        "net_http",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKey":       "runtime",
		"aeshashbody":  "runtime",
		"math.sincos":  "other",
		"main.runPass": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestProfileChargesLeafFunctions(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain")
	}
	p := &layerProfile{dir: t.TempDir()}
	if err := p.start(); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.tally(); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no CPU time in a 300 ms busy profile")
	}
	var inSpin int64
	for pkg, v := range p.other {
		if pkg == "main" || pkg == "ivn/perfbench" {
			inSpin += v
		}
	}
	if inSpin*2 < p.total {
		t.Errorf("only %d of %d profiled ns in the busy loop's package: %v", inSpin, p.total, p.other)
	}
}

func TestParseTop(t *testing.T) {
	out := `File: perfbench
Type: cpu
Showing nodes accounting for 30000000ns, 100% of 30000000ns total
      flat  flat%   sum%        cum   cum%
20000000ns 66.67% 66.67% 20000000ns 66.67%  ivn/internal/session.(*medium).broadcastClean
10000000ns 33.33%   100% 10000000ns 33.33%  math.sqrt (inline)
         0     0%   100% 30000000ns   100%  runtime.main
`
	got, err := parseTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"ivn/internal/session.(*medium).broadcastClean": 20000000,
		"math.sqrt":    10000000,
		"runtime.main": 0,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parseTop = %v, want %v", got, want)
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

func TestQuietOnes(t *testing.T) {
	steal := []float64{0.10, 0.01, 0.20, 0.02, 0.05, 0.00}
	at := func(i int) float64 { return steal[i] }
	for _, tc := range []struct {
		want int
		keep []int
	}{
		{1, []int{1, 3, 5}},          // three quiet samples
		{3, []int{1, 3, 5}},          // exactly enough
		{4, []int{1, 3, 4, 5}},       // too few quiet: the four least disturbed
		{9, []int{0, 1, 2, 3, 4, 5}}, // fewer samples than wanted: all
	} {
		got := quietOnes(len(steal), tc.want, at)
		if fmt.Sprint(got) != fmt.Sprint(tc.keep) {
			t.Errorf("want %d: kept %v, want %v", tc.want, got, tc.keep)
		}
	}
}
