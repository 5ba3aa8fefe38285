package ivnsim

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/tag"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig6", "freqopt",
		"fig9", "fig10a", "fig10b", "fig11", "fig12",
		"fig13a", "fig13b", "fig13c", "fig13d",
		"fig15a", "fig15b", "invivo",
		"ablation-coherent", "ablation-equalpower", "ablation-twostage",
		"ablation-flatness", "ablation-averaging", "ablation-outofband",
		"ablation-safety", "ablation-freqerror", "ablation-hopping",
		"ablation-multipath", "ablation-phasenoise", "ablation-miller",
		"faultmatrix", "population", "adaptiveq",
	}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if len(Registry()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry()), len(want))
	}
	if _, err := ByID("nonsense"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestMeasureGainsRelationships(t *testing.T) {
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	r := rng.New(42)
	g, err := MeasureGains(sc, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Single <= 0 || g.CIB <= 0 || g.Blind <= 0 || g.MRT <= 0 {
		t.Fatalf("non-positive peaks: %+v", g)
	}
	// Oracle MRT upper-bounds everything at the same per-antenna power.
	if g.CIB > g.MRT*1.0001 || g.Blind > g.MRT*1.0001 {
		t.Fatalf("MRT is not the upper bound: %+v", g)
	}
}

func TestRunGainTrialsDeterministicAndParallelSafe(t *testing.T) {
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	a, err := RunGainTrialsCtx(context.Background(), engine.Limits{}, sc, 4, 12, 7, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGainTrialsCtx(context.Background(), engine.Limits{}, sc, 4, 12, 7, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across identical runs", i)
		}
	}
	if _, err := RunGainTrialsCtx(context.Background(), engine.Limits{}, sc, 4, 0, 7, nil, ""); err == nil {
		t.Fatal("0 trials accepted")
	}
}

func TestCIBGainGrowsWithAntennas(t *testing.T) {
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	med := func(n int) float64 {
		samples, err := RunGainTrialsCtx(context.Background(), engine.Limits{}, sc, n, 30, 3, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		gains := make([]float64, len(samples))
		for i, s := range samples {
			gains[i] = s.CIB / s.Single
		}
		// crude median
		sum := 0.0
		for _, g := range gains {
			sum += g
		}
		return sum / float64(len(gains))
	}
	g2, g10 := med(2), med(10)
	if g10 < 4*g2 {
		t.Fatalf("mean gain at 10 antennas (%v) not well above 2 antennas (%v)", g10, g2)
	}
}

func TestRunCommTrialPowersNearAndNotFar(t *testing.T) {
	r := rng.New(5)
	near, err := RunCommTrial(scenario.NewAir(2), 8, tag.StandardTag(), CommOptions{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if !near.Powered || !near.Decoded {
		t.Fatalf("2 m / 8 antennas failed: %+v", near)
	}
	far, err := RunCommTrial(scenario.NewAir(200), 1, tag.StandardTag(), CommOptions{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if far.Powered {
		t.Fatalf("200 m single antenna powered the tag: %+v", far)
	}
}

func TestRunCommTrialWaveformAgreesNearOperatingPoint(t *testing.T) {
	r := rng.New(6)
	budget, err := RunCommTrial(scenario.NewAir(3), 8, tag.StandardTag(), CommOptions{}, r)
	if err != nil {
		t.Fatal(err)
	}
	r2 := rng.New(6)
	wave, err := RunCommTrial(scenario.NewAir(3), 8, tag.StandardTag(), CommOptions{Waveform: true}, r2)
	if err != nil {
		t.Fatal(err)
	}
	if budget.Decoded != wave.Decoded {
		t.Fatalf("budget and waveform paths disagree at 3 m: %+v vs %+v", budget, wave)
	}
	if wave.Decoded && wave.Correlation < 0.8 {
		t.Fatalf("waveform decode with correlation %v", wave.Correlation)
	}
}

func TestMaxOperatingDistanceProperties(t *testing.T) {
	mk := func(d float64) scenario.Scenario { return scenario.NewAir(d) }
	model := tag.StandardTag()
	d1, err := MaxOperatingDistanceCtx(context.Background(), engine.Limits{}, mk, 1, model, 0.3, 100, 3, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := MaxOperatingDistanceCtx(context.Background(), engine.Limits{}, mk, 8, model, 0.3, 100, 3, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d1 < 3 || d1 > 10 {
		t.Fatalf("single-antenna range %v m, want ≈5", d1)
	}
	if d8 < 2*d1 {
		t.Fatalf("8-antenna range %v not well beyond single-antenna %v", d8, d1)
	}
	// Validation.
	if _, err := MaxOperatingDistanceCtx(context.Background(), engine.Limits{}, mk, 1, model, 0, 10, 3, 2, 1); err == nil {
		t.Fatal("bad interval accepted")
	}
	if _, err := MaxOperatingDistanceCtx(context.Background(), engine.Limits{}, mk, 1, model, 1, 10, 2, 3, 1); err == nil {
		t.Fatal("successNeeded > trials accepted")
	}
}

func TestQuickExperimentsAllRun(t *testing.T) {
	// Every registered experiment must complete in quick mode and produce
	// at least one row. This is the integration test for the whole
	// pipeline.
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(Config{Seed: 11, Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if tab.ID != e.ID {
				t.Fatalf("table id %q != experiment id %q", tab.ID, e.ID)
			}
			var buf bytes.Buffer
			if err := engine.RenderText(tab, &buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFig9MonotoneShape(t *testing.T) {
	tab, err := mustRun(t, "fig9", Config{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Median gain at 10 antennas must exceed 5× the 2-antenna median and
	// be below the N²=100 optimum... (allow fading headroom to 4N²).
	med := func(row int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if m1 := med(0); m1 != 1.0 {
		t.Fatalf("1-antenna gain %v, want 1", m1)
	}
	if med(9) < 5*med(1) {
		t.Fatalf("10-antenna median %v not well above 2-antenna %v", med(9), med(1))
	}
}

func TestInVivoShape(t *testing.T) {
	tab, err := mustRun(t, "invivo", Config{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Row order: gastric std, gastric mini, subcutaneous std, subcutaneous
	// mini. Gastric mini must fail every session; subcutaneous standard
	// must succeed every session (paper §6.2).
	parse := func(cell string) (num, den int) {
		parts := strings.Split(cell, "/")
		num, _ = strconv.Atoi(parts[0])
		den, _ = strconv.Atoi(parts[1])
		return
	}
	gm, _ := parse(tab.Rows[1][3])
	if gm != 0 {
		t.Fatalf("gastric miniature decoded %s, want 0", tab.Rows[1][3])
	}
	ss, den := parse(tab.Rows[2][3])
	if ss != den {
		t.Fatalf("subcutaneous standard decoded %s, want all", tab.Rows[2][3])
	}
}

// textTable is a typed result with its cells formatted, the view the
// shape tests assert on.
type textTable struct {
	*engine.Result
	Rows [][]string
}

// mustRun executes an experiment and returns its textTable.
func mustRun(t *testing.T, id string, cfg Config) (textTable, error) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		return textTable{}, err
	}
	res, err := e.Run(cfg)
	if err != nil {
		return textTable{}, err
	}
	return textTable{Result: res, Rows: res.TextRows()}, nil
}
