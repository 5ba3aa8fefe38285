package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it; fewer and the percentile is one or two unlucky samples.
const minTail = 10

// tailLadder lists the percentiles Summarize may report as the tail,
// highest first, in tenths of a percent so the sample arithmetic is exact.
var tailLadder = []int{999, 990, 950, 900, 750}

// Summary is a timing distribution as the benchmark reports it: the
// median plus the highest percentile with at least minTail samples
// beyond it, with the sample count. TailP is 0 when there are too few
// samples for any tail.
type Summary struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

// Summarize reduces samples to a Summary. It does not modify xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := sortedCopy(xs)
	s.P50 = quantileSorted(sorted, 0.5)
	for _, p := range tailLadder {
		if len(xs)*(1000-p) >= 1000*minTail {
			s.TailP = float64(p) / 10
			s.Tail = quantileSorted(sorted, float64(p)/1000)
			break
		}
	}
	return s
}

// String formats the summary with a unit, e.g. "p50 14.2 ms, p95 18.0 ms (n=412)".
func (s Summary) String(unit string) string {
	if s.N == 0 {
		return "no samples"
	}
	if s.TailP == 0 {
		return fmt.Sprintf("p50 %.4g %s, no tail (n=%d)", s.P50, unit, s.N)
	}
	return fmt.Sprintf("p50 %.4g %s, p%g %.4g %s (n=%d)", s.P50, unit, s.TailP, s.Tail, unit, s.N)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, the rule of Python's
// statistics.quantiles(method="inclusive"). Empty input gives NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantileSorted(sortedCopy(xs), q)
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// metricName is the grammar every metric and workload name obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name.
func validName(name string) bool { return metricName.MatchString(name) }
