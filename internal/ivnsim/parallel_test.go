package ivnsim

import (
	"runtime"
	"strings"
	"testing"

	"ivn/internal/engine"
)

// The scheduler's own unit tests live with it in internal/engine; this
// file keeps the end-to-end determinism check at the experiment level.

// renderedTable flattens a table to one comparable string.
func renderedTable(tab textTable) string {
	var sb strings.Builder
	if err := engine.RenderCSV(tab.Result, &sb); err != nil {
		return "render error: " + err.Error()
	}
	return sb.String()
}

// TestTablesIdenticalAcrossWorkerCap is the same contract along the other
// concurrency axis: the engine's -parallel worker cap. It specifically
// guards the batched scratch paths — with one worker a single kit serves
// every trial of a sweep; with four workers trials land on different kits
// in scheduling-dependent order — so any leakage of worker state into
// results shows up as a table diff. Fig9 covers the batched gain sweep,
// fig13c the batched range search, fig6 and ablation-twostage core's
// Monte-Carlo scans fanned out over the pool.
func TestTablesIdenticalAcrossWorkerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ids := []string{"fig9", "fig13c", "fig6", "ablation-twostage"}
	cfg := Config{Seed: 42, Quick: true}
	for _, id := range ids {
		cfg.Limits = engine.Limits{MaxParallel: 1}
		tabOne, err := mustRun(t, id, cfg)
		if err != nil {
			t.Fatalf("%s at -parallel 1: %v", id, err)
		}
		one := renderedTable(tabOne)
		cfg.Limits = engine.Limits{MaxParallel: 4}
		tabFour, err := mustRun(t, id, cfg)
		if err != nil {
			t.Fatalf("%s at -parallel 4: %v", id, err)
		}
		if four := renderedTable(tabFour); four != one {
			t.Errorf("%s: table differs between -parallel 1 and 4:\nserial:\n%s\nparallel:\n%s", id, one, four)
		}
	}
}

func TestTablesIdenticalAcrossGOMAXPROCS(t *testing.T) {
	// The determinism contract of the parallel trial loops: for a fixed
	// seed, every experiment table is byte-identical whether trials run
	// serially (GOMAXPROCS=1) or concurrently. Covers the experiments
	// whose trial loops run through the engine scheduler.
	if testing.Short() {
		t.Skip("short mode")
	}
	ids := []string{"fig9", "invivo", "ablation-equalpower", "ablation-flatness",
		"ablation-averaging", "ablation-freqerror", "ablation-miller", "fig13a"}
	cfg := Config{Seed: 42, Quick: true}

	prev := runtime.GOMAXPROCS(1)
	serial := make(map[string]string)
	for _, id := range ids {
		tab, err := mustRun(t, id, cfg)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatalf("%s serial: %v", id, err)
		}
		serial[id] = renderedTable(tab)
	}
	runtime.GOMAXPROCS(prev)
	if prev == 1 {
		prev = 4 // force a genuinely concurrent second pass on 1-CPU hosts
	}
	runtime.GOMAXPROCS(prev)
	for _, id := range ids {
		tab, err := mustRun(t, id, cfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if got := renderedTable(tab); got != serial[id] {
			t.Errorf("%s: table differs between GOMAXPROCS=1 and %d:\nserial:\n%s\nparallel:\n%s",
				id, prev, serial[id], got)
		}
	}
}
