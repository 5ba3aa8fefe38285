package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements `perfbench compare BASE_GLOB CHANGE_GLOB`: it
// reads --out reports of a parent commit and of a change, refuses to
// compare reports taken on different machines or toolchains, and judges
// every end-to-end metric of every workload by the 10-pair rule. A
// workload on which the change fails more operations than the base
// counts no gain and makes the comparison exit 1, as a regression does.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE_GLOB CHANGE_GLOB")
		return 2
	}
	base, err := loadReports(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := loadReports(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	all := append(append([]report(nil), base...), change...)
	for _, r := range all[1:] {
		if !r.Machine.sameHost(all[0].Machine) {
			a, _ := json.Marshal(all[0].Machine)
			b, _ := json.Marshal(r.Machine)
			fmt.Fprintf(os.Stderr, "perfbench compare: reports come from different machines, refusing to compare:\n  %s\n  %s\n", a, b)
			return 2
		}
	}
	regressed := false
	for _, w := range workloadNames(all) {
		bs, cs := byWorkload(base, w), byWorkload(change, w)
		if len(bs) == 0 || len(cs) == 0 {
			fmt.Fprintf(stdout, "%s: missing on one side (%d base, %d change runs)\n", w, len(bs), len(cs))
			continue
		}
		pairs := min(len(bs), len(cs))
		note := ""
		if pairs < 10 {
			note = " (fewer than the 10 pairs a gain needs)"
		}
		fmt.Fprintf(stdout, "%s: %d base, %d change runs, %d pairs%s\n", w, len(bs), len(cs), pairs, note)
		bf, cf := failures(bs), failures(cs)
		moreFailed := cf > bf
		fmt.Fprintf(stdout, "  failed operations: base %d, change %d\n", bf, cf)
		if moreFailed {
			fmt.Fprintf(stdout, "  the change fails more operations than the base: no gain counts\n")
			regressed = true
		}
		for _, d := range endToEnd {
			bv, cv := values(bs, d.Name), values(cs, d.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(d, bv, cv)
			if moreFailed && v.verdict == "gain" {
				v.verdict = "not counted"
			}
			if v.verdict == "regression" {
				regressed = true
			}
			fmt.Fprintf(stdout, "  %-12s %-4s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d  %s\n",
				d.Name, d.Unit, v.baseMed, v.baseQ1, v.baseQ3, v.changeMed, v.changeQ1, v.changeQ3, v.wins, v.pairs, v.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict is one metric's comparison.
type verdict struct {
	baseMed, baseQ1, baseQ3       float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	verdict                       string
}

// judge applies the rule: a gain needs the change to win at least nine
// tenths of the pairs (run i of each side; ties count for neither) and
// the medians to differ by more than the base's quartile spread; a
// regression is a median worse than the base's by more than the bound;
// a base spread wider than the bound leaves the metric unresolved unless
// every change run beats every base run.
func judge(d metricDef, base, change []float64) verdict {
	v := verdict{
		baseMed: Median(base), baseQ1: Quantile(base, 0.25), baseQ3: Quantile(base, 0.75),
		changeMed: Median(change), changeQ1: Quantile(change, 0.25), changeQ3: Quantile(change, 0.75),
		pairs: min(len(base), len(change)),
	}
	better := func(c, b float64) bool {
		if d.Better == "higher" {
			return c > b
		}
		return c < b
	}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], base[i]) {
			v.wins++
		}
	}
	spread := v.baseQ3 - v.baseQ1
	worse := (v.changeMed - v.baseMed) / v.baseMed
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := Quantile(change, 1) < Quantile(base, 0)
	if d.Better == "higher" {
		allBetter = Quantile(change, 0) > Quantile(base, 1)
	}
	switch {
	case v.pairs >= 10 && float64(v.wins) >= 0.9*float64(v.pairs) && math.Abs(v.changeMed-v.baseMed) > spread:
		v.verdict = "gain"
	case worse > d.Bound:
		v.verdict = "regression"
	case spread/v.baseMed > d.Bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "no change"
	}
	return v
}

func loadReports(pattern string) ([]report, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no report matches %q", pattern)
	}
	sort.Strings(paths)
	var out []report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced report matches %q", pattern)
	}
	return out, nil
}

func workloadNames(rs []report) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	return names
}

func byWorkload(rs []report, w string) []report {
	var out []report
	for _, r := range rs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

// failures is the total of failed operations over rs.
func failures(rs []report) int {
	n := 0
	for _, r := range rs {
		n += r.Result.Failed
	}
	return n
}

func values(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
