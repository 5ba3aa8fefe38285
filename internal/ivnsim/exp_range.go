package ivnsim

import (
	"fmt"

	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/scenario"
	"ivn/internal/tag"
)

// Range/depth experiments: Fig. 13(a)-(d).

func init() {
	register(Experiment{
		ID:    "fig13a",
		Title: "Operating range vs antennas: standard tag in air",
		Paper: "≈5.2 m at 1 antenna up to ≈38 m at 8 (7.6x)",
		Run: func(cfg Config) (*engine.Result, error) {
			return runRangeSweep(cfg, "fig13a", tag.StandardTag(), false)
		},
	})
	register(Experiment{
		ID:    "fig13b",
		Title: "Operating range vs antennas: miniature tag in air",
		Paper: "≈0.5 m at 1 antenna up to ≈4 m at 8",
		Run: func(cfg Config) (*engine.Result, error) {
			return runRangeSweep(cfg, "fig13b", tag.MiniatureTag(), false)
		},
	})
	register(Experiment{
		ID:    "fig13c",
		Title: "Operating depth vs antennas: standard tag in water",
		Paper: "no operation at 1 antenna; ≈23 cm at 8 antennas; logarithmic in N",
		Run: func(cfg Config) (*engine.Result, error) {
			return runRangeSweep(cfg, "fig13c", tag.StandardTag(), true)
		},
	})
	register(Experiment{
		ID:    "fig13d",
		Title: "Operating depth vs antennas: miniature tag in water",
		Paper: "no operation at 1 antenna; ≈11 cm at 8 antennas",
		Run: func(cfg Config) (*engine.Result, error) {
			return runRangeSweep(cfg, "fig13d", tag.MiniatureTag(), true)
		},
	})
}

func runRangeSweep(cfg Config, id string, model tag.Model, water bool) (*engine.Result, error) {
	col := engine.Col("range", "m")
	if water {
		col = engine.Col("depth", "cm")
	}
	res := engine.NewResult(id,
		fmt.Sprintf("Maximum operating %s vs antennas, %s tag", col.Label(), model.Name),
		engine.Col("antennas", ""), col)
	trialsPerPoint := 5
	successNeeded := 3
	if cfg.Quick {
		trialsPerPoint, successNeeded = 3, 2
	}
	var mk func(d float64) scenario.Scenario
	lo, hi := 0.2, 120.0
	if water {
		// Fig. 13(c)/(d) setup: antennas 90 cm from the tank edge; the tag
		// sits in a fixed test tube, so its orientation is pinned (the
		// orientation sweep is Fig. 10b's separate experiment).
		mk = func(d float64) scenario.Scenario {
			sc := scenario.NewTank(0.9, em.Water, d)
			sc.FixedOrientation = 0
			return sc
		}
		lo, hi = 0.005, 0.6
	} else {
		mk = func(d float64) scenario.Scenario { return scenario.NewAir(d) }
	}
	antennaCounts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		antennaCounts = []int{1, 2, 4, 8}
	}
	// The inner trial loop already runs on the engine scheduler
	// (MaxOperatingDistanceCtx bisects sequentially, parallelizing each
	// probe's trials), so the sweep over antenna counts stays a plain loop.
	var first, last float64
	for _, n := range antennaCounts {
		d, err := MaxOperatingDistanceCtx(cfg.Context(), cfg.Limits, mk, n, model, lo, hi, trialsPerPoint, successNeeded, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		if n == antennaCounts[0] {
			first = d
		}
		last = d
		val := engine.Number("%.1f", d)
		if water {
			val = engine.Number("%.1f", d*100)
		}
		if d == 0 {
			val = engine.Str("no operation")
		}
		res.AddRow(engine.Int(n), val)
	}
	switch {
	case water && first > 0:
		res.AddNote("depth grows roughly logarithmically with N (exponential loss in water, paper §6.1.2)")
	case water:
		res.AddNote("single antenna cannot operate at all in this setup (matches the paper's in-water result)")
	case first > 0:
		res.AddNote("range gain %d antennas vs 1: %.1fx (paper: ≈7.6x in air)", antennaCounts[len(antennaCounts)-1], last/first)
	default:
		res.AddNote("no operation even at the minimum distance")
	}
	_ = last
	res.AddNote("success = tag powers up AND the out-of-band reader decodes its RN16 in >= %d/%d placements",
		successNeeded, trialsPerPoint)
	return res, nil
}
