package ivnsim

import (
	"strconv"
	"strings"
	"testing"
)

// Shape tests: assert the qualitative structure the paper reports for each
// figure, on quick-mode runs. These are the regression net that keeps the
// reproduction honest as models evolve.

func cellFloat(t *testing.T, tab textTable, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("row %d col %d %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFig6Shape(t *testing.T) {
	tab, err := mustRun(t, "fig6", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// CDFs must be monotone, and the best set must stochastically dominate
	// the worst (its CDF sits at or below the worst's at every gain level).
	prevBest, prevWorst := -1.0, -1.0
	for row := range tab.Rows {
		best := cellFloat(t, tab, row, 1)
		worst := cellFloat(t, tab, row, 2)
		if best < prevBest-1e-9 || worst < prevWorst-1e-9 {
			t.Fatalf("CDF not monotone at row %d", row)
		}
		if best > worst+1e-9 {
			t.Fatalf("best-set CDF above worst at row %d (%v > %v): dominance violated", row, best, worst)
		}
		prevBest, prevWorst = best, worst
	}
	// Both reach 1 at the max gain 25.
	last := len(tab.Rows) - 1
	if cellFloat(t, tab, last, 1) != 1 || cellFloat(t, tab, last, 2) != 1 {
		t.Fatal("CDFs do not reach 1 at N²")
	}
}

func TestFig10aShape(t *testing.T) {
	tab, err := mustRun(t, "fig10a", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Gain flat with depth (all medians within 3x of each other) while the
	// absolute peak falls monotonically overall (first vs last ≥ 8 dB).
	var lo, hi float64
	for row := range tab.Rows {
		m := cellFloat(t, tab, row, 2)
		if row == 0 {
			lo, hi = m, m
		}
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi/lo > 3 {
		t.Fatalf("gain varies %vx across depth; paper shows flat", hi/lo)
	}
	first := cellFloat(t, tab, 0, 4)
	last := cellFloat(t, tab, len(tab.Rows)-1, 4)
	if first-last < 8 {
		t.Fatalf("absolute peak fell only %.1f dB over 20 cm of water", first-last)
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := mustRun(t, "fig11", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d media rows, want 7", len(tab.Rows))
	}
	for row := range tab.Rows {
		cib := cellFloat(t, tab, row, 2)   // CIB median
		blind := cellFloat(t, tab, row, 4) // baseline median
		if cib < 20 {
			t.Fatalf("row %d: CIB median %v implausibly low", row, cib)
		}
		if blind < 2 || blind > 30 {
			t.Fatalf("row %d: baseline median %v outside plausible range", row, blind)
		}
		if cib < 2*blind {
			t.Fatalf("row %d: CIB %v not well above baseline %v", row, cib, blind)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab, err := mustRun(t, "fig12", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// CDF at ratio 1 must be ≈0 (CIB essentially always wins).
	var at1 float64
	found := false
	prev := -1.0
	for row := range tab.Rows {
		x := cellFloat(t, tab, row, 0)
		c := cellFloat(t, tab, row, 1)
		if c < prev-1e-9 {
			t.Fatalf("ratio CDF not monotone at row %d", row)
		}
		prev = c
		if x == 1 {
			at1, found = c, true
		}
	}
	if !found {
		t.Fatal("no ratio=1 row")
	}
	if at1 > 0.03 {
		t.Fatalf("CIB loses to the baseline in %.1f%% of trials; paper reports <1%%", at1*100)
	}
}

func TestFig13aShape(t *testing.T) {
	tab, err := mustRun(t, "fig13a", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Range grows with antennas; 8-antenna range is several times the
	// single-antenna range; single-antenna lands near the paper's 5.2 m.
	first := cellFloat(t, tab, 0, 1)
	last := cellFloat(t, tab, len(tab.Rows)-1, 1)
	if first < 3 || first > 9 {
		t.Fatalf("single-antenna range %v m, want ≈5.2", first)
	}
	if last < 3*first {
		t.Fatalf("8-antenna range %v not well above single-antenna %v", last, first)
	}
}

func TestFig13dShape(t *testing.T) {
	tab, err := mustRun(t, "fig13d", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The miniature tag must not operate with one antenna and must reach
	// several cm with eight (paper: no op → 11 cm).
	if tab.Rows[0][1] != "no operation" {
		t.Fatalf("miniature tag operated at depth %s with one antenna", tab.Rows[0][1])
	}
	last := tab.Rows[len(tab.Rows)-1][1]
	if last == "no operation" {
		t.Fatal("miniature tag never operated")
	}
	d, err := strconv.ParseFloat(last, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d < 4 || d > 20 {
		t.Fatalf("8-antenna miniature depth %v cm, want ≈10", d)
	}
}

func TestAblationOutOfBandShape(t *testing.T) {
	tab, err := mustRun(t, "ablation-outofband", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: in-band saturated, cannot decode. Row 1: out-of-band fine.
	if tab.Rows[0][1] != "true" || tab.Rows[0][3] != "false" {
		t.Fatalf("in-band row wrong: %v", tab.Rows[0])
	}
	if tab.Rows[1][1] != "false" || tab.Rows[1][3] != "true" {
		t.Fatalf("out-of-band row wrong: %v", tab.Rows[1])
	}
}

func TestAblationSafetyShape(t *testing.T) {
	tab, err := mustRun(t, "ablation-safety", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// CIB compliant; CW equivalent not.
	if tab.Rows[0][3] != "true" {
		t.Fatalf("CIB non-compliant: %v", tab.Rows[0])
	}
	if tab.Rows[1][3] != "false" {
		t.Fatalf("CW equivalent compliant: %v", tab.Rows[1])
	}
	cibAvg := cellFloat(t, tab, 0, 1)
	cwAvg := cellFloat(t, tab, 1, 1)
	if cwAvg <= cibAvg {
		t.Fatal("CW average SAR not above CIB's")
	}
}

func TestAblationFreqErrorShape(t *testing.T) {
	tab, err := mustRun(t, "ablation-freqerror", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Peak stable across error levels; recurrence perfect only at σ=0.
	peak0 := cellFloat(t, tab, 0, 1)
	rec0 := cellFloat(t, tab, 0, 2)
	if rec0 < 0.999 {
		t.Fatalf("zero-error recurrence %v, want 1", rec0)
	}
	for row := 1; row < len(tab.Rows); row++ {
		peak := cellFloat(t, tab, row, 1)
		if peak < 0.9*peak0 || peak > 1.1*peak0 {
			t.Fatalf("row %d: peak %v drifted from %v", row, peak, peak0)
		}
		if rec := cellFloat(t, tab, row, 2); rec > 0.9 {
			t.Fatalf("row %d: recurrence %v survived frequency error", row, rec)
		}
	}
}

func TestAblationHoppingShape(t *testing.T) {
	tab, err := mustRun(t, "ablation-hopping", Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fixed := cellFloat(t, tab, 0, 2)
	hopped := cellFloat(t, tab, 1, 2)
	if hopped-fixed < 10 {
		t.Fatalf("hop recovered only %.1f dB from the engineered fade", hopped-fixed)
	}
	if tab.Rows[1][1] == "915.0" {
		t.Fatal("hopper stayed in the faded band")
	}
}
