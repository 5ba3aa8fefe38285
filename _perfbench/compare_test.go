package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// writeReports writes one report per wall time; the first failed of
// them record one failed operation.
func writeReports(t *testing.T, dir, side string, m machine, walls []float64, failed int) {
	t.Helper()
	for i, w := range walls {
		f := 0
		if i < failed {
			f = 1
		}
		r := report{Machine: m, Workload: "cib_sweep", Seed: uint64(i + 1), Result: result{
			Correct: f == 0, Attempted: 1, Failed: f,
			Metrics: map[string]metric{"wall_s": {Value: w, Unit: "s"}},
		}}
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("%s-%02d.json", side, i)), r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareRefusesReportsFromOtherMachines(t *testing.T) {
	dir := t.TempDir()
	m := machine{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu A", MemTotalMB: 8000, GoVersion: "go1.24.0", Commit: "a"}
	writeReports(t, dir, "base", m, []float64{1, 1, 1}, 0)
	other := m
	other.Commit = "b"
	writeReports(t, dir, "same", other, []float64{1, 1, 1}, 0)
	other.CPUModel = "cpu B"
	writeReports(t, dir, "other", other, []float64{1, 1, 1}, 0)

	if code := compareMain([]string{filepath.Join(dir, "base-*"), filepath.Join(dir, "same-*")}, io.Discard); code != 0 {
		t.Errorf("same machine, other commit: exit %d, want 0", code)
	}
	if code := compareMain([]string{filepath.Join(dir, "base-*"), filepath.Join(dir, "other-*")}, io.Discard); code != 2 {
		t.Errorf("different CPU model: exit %d, want 2", code)
	}
}

func TestJudge(t *testing.T) {
	wall := endToEnd[1]
	if wall.Name != "wall_s" {
		t.Fatalf("endToEnd[1] is %s", wall.Name)
	}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{scaled(0.8), "gain"},
		{scaled(1.0), "no change"},
		{scaled(1.3), "regression"},
	} {
		if got := judge(wall, base, tc.change).verdict; got != tc.want {
			t.Errorf("change ×%.2f: verdict %q, want %q", tc.change[0]/base[0], got, tc.want)
		}
	}
	noisy := []float64{0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2}
	if got := judge(wall, noisy, noisy).verdict; !strings.Contains(got, "unresolved") {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

func TestCompareCountsNoGainWhenTheChangeFailsMore(t *testing.T) {
	dir := t.TempDir()
	m := machine{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu A", MemTotalMB: 8000, GoVersion: "go1.24.0", Commit: "a"}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	faster := make([]float64, len(base))
	for i, v := range base {
		faster[i] = 0.8 * v
	}
	writeReports(t, dir, "base", m, base, 0)
	writeReports(t, dir, "clean", m, faster, 0)
	writeReports(t, dir, "broken", m, faster, 1)

	var out strings.Builder
	if code := compareMain([]string{filepath.Join(dir, "base-*"), filepath.Join(dir, "clean-*")}, &out); code != 0 {
		t.Errorf("faster, no failures: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), " gain\n") {
		t.Errorf("faster, no failures: no gain reported\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{filepath.Join(dir, "base-*"), filepath.Join(dir, "broken-*")}, &out); code != 1 {
		t.Errorf("faster with a failed run: exit %d, want 1\n%s", code, out.String())
	}
	if strings.Contains(out.String(), " gain\n") || !strings.Contains(out.String(), "not counted") {
		t.Errorf("faster with a failed run: a gain was counted\n%s", out.String())
	}
}
