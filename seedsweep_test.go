package ivn

import (
	"context"
	"regexp"
	"strconv"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// TestFreqPlanClaimsHoldAcrossSeeds sweeps 20 seeds through the run
// pipeline for the two experiments built on core's Monte-Carlo
// optimizer, so a claim that holds only at the golden seed shows:
//
//   - quick fig6: the best set's median power gain reaches 90% of the
//     optimal 25, the worst-of-24 set's median stays under 75%;
//   - full-size ablation-twostage: the discovery plan's E[peak]/N is at
//     least the steady plan's, and the steady plan's dwell at least the
//     discovery plan's. Quick size is too coarse for this (it fails at
//     seeds 6, 12 and 14).
func TestFreqPlanClaimsHoldAcrossSeeds(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("20 full-size ablation-twostage runs; skipped under -short and -race")
	}
	medianGain := regexp.MustCompile(`median gain ([0-9.]+)`)
	run := func(spec runspec.Spec) *engine.Result {
		t.Helper()
		res, _, err := runspec.Run(context.Background(), engine.Limits{}, spec, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", spec.Experiment, spec.Seed, err)
		}
		return res
	}
	for seed := uint64(1); seed <= 20; seed++ {
		fig6 := run(runspec.Spec{Experiment: "fig6", Seed: seed, Quick: true})
		var medians []float64
		for _, note := range fig6.Notes {
			if m := medianGain.FindStringSubmatch(note); m != nil {
				v, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				medians = append(medians, v)
			}
		}
		if len(medians) != 2 {
			t.Fatalf("fig6 seed %d: want best and worst median notes, got %q", seed, fig6.Notes)
		}
		if best, worst := medians[0], medians[1]; best < 22.5 || worst >= 18.75 {
			t.Errorf("fig6 seed %d: best-set median %.1f (want >= 22.5), worst-set median %.1f (want < 18.75)", seed, best, worst)
		}

		ts := run(runspec.Spec{Experiment: "ablation-twostage", Seed: seed})
		disc, steady := ts.Rows[0], ts.Rows[1]
		if d, s := disc[2].Values[0], steady[2].Values[0]; d < s {
			t.Errorf("ablation-twostage seed %d: discovery E[peak]/N %.3f below steady %.3f", seed, d, s)
		}
		if d, s := disc[3].Values[0], steady[3].Values[0]; s < d {
			t.Errorf("ablation-twostage seed %d: steady dwell %.2f ms below discovery %.2f ms", seed, s, d)
		}
	}
}
