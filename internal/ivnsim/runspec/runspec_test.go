package runspec

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
)

func TestValidate(t *testing.T) {
	for _, good := range []Spec{{Experiment: "fig9", Seed: 1}, {Experiment: "fig9", Trials: maxTrials}} {
		if err := good.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	bad := []Spec{
		{},
		{Experiment: "no-such-experiment"},
		{Experiment: "fig9", Trials: -1},
		{Experiment: "fig12", Trials: 1 << 40},
		{Experiment: "population", Trials: 4e18},
		{Experiment: "fig9", Trials: maxTrials + 1},
		{Experiment: "faultmatrix", FaultScales: []float64{-1}},
		{Experiment: "faultmatrix", FaultScales: []float64{math.NaN()}},
		{Experiment: "faultmatrix", FaultScales: []float64{math.Inf(1)}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
}

func TestCanonicalCollapsesEquivalentSpecs(t *testing.T) {
	a := Spec{Experiment: "fig9", Seed: 2, FaultScales: nil}
	b := Spec{Experiment: "fig9", Seed: 2, FaultScales: []float64{}}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("nil vs empty fault scales diverge:\n%s\n%s", ca, cb)
	}
	// Round-trip: canonical bytes parse back to the normalized spec.
	back, err := ParseJSON(ca)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a.Normalize()) {
		t.Fatalf("round trip changed the spec: %+v vs %+v", back, a.Normalize())
	}
}

func TestKeySeparatesDistinctRuns(t *testing.T) {
	base := Spec{Experiment: "fig9", Seed: 2, Quick: true}
	variants := []Spec{
		{Experiment: "fig10a", Seed: 2, Quick: true},
		{Experiment: "fig9", Seed: 3, Quick: true},
		{Experiment: "fig9", Seed: 2},
		{Experiment: "fig9", Seed: 2, Quick: true, Trials: 7},
		{Experiment: "fig9", Seed: 2, Quick: true, Trace: true},
		{Experiment: "faultmatrix", Seed: 2, Quick: true, FaultScales: []float64{0, 1}},
	}
	kb, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	if len(kb) != 64 {
		t.Fatalf("key %q is not hex sha256", kb)
	}
	seen := map[string]bool{kb: true}
	for _, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("spec %+v collides with an earlier key", v)
		}
		seen[k] = true
	}
	// Stability: the same spec keys identically every time.
	again, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	if again != kb {
		t.Fatalf("key not stable: %s vs %s", again, kb)
	}
}

func TestParseJSONRejectsUnknownFieldsAndTrailing(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"experiment":"fig9","seeed":2}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseJSON([]byte(`{"experiment":"fig9"}{"experiment":"fig9"}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	s, err := ParseJSON([]byte(`{"experiment":"fig9","seed":11,"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Experiment != "fig9" || s.Seed != 11 || !s.Quick {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseScales(t *testing.T) {
	got, err := ParseScales("0, 1.5 ,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1.5 || got[2] != 4 {
		t.Fatalf("ParseScales = %v", got)
	}
	if out, err := ParseScales(""); err != nil || out != nil {
		t.Fatalf("empty scales: %v, %v", out, err)
	}
	for _, bad := range []string{"x", "-1", "1,,2"} {
		if _, err := ParseScales(bad); err == nil {
			t.Fatalf("ParseScales(%q) accepted", bad)
		}
	}
}

func TestRunMatchesDirectExperimentRun(t *testing.T) {
	spec := Spec{Experiment: "fig2", Seed: 1, Quick: true}
	res, tlog, err := Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tlog != nil {
		t.Fatal("untraced run returned a trace log")
	}
	e, err := ivnsim.ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(ivnsim.Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var got, direct bytes.Buffer
	if err := engine.RenderJSON(res, &got); err != nil {
		t.Fatal(err)
	}
	if err := engine.RenderJSON(want, &direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), direct.Bytes()) {
		t.Fatal("runspec.Run diverged from the direct experiment run")
	}
}

func TestRunCollectsTraceWhenRequested(t *testing.T) {
	spec := Spec{Experiment: "fig12", Seed: 2, Quick: true, Trace: true}
	_, tlog, err := Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tlog == nil || len(tlog.Keys()) == 0 {
		t.Fatal("traced run collected no spans")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, engine.Limits{}, Spec{Experiment: "fig9", Seed: 1, Quick: true}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWriteOutputsReportsFailingPath(t *testing.T) {
	spec := Spec{Experiment: "fig2", Seed: 1, Quick: true}
	res, _, err := Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A path under an existing *file* cannot be created (even by root,
	// unlike a read-only directory), so this exercises the error path.
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(occupied, "sub")
	err = WriteOutputs(res, dir)
	if err == nil {
		t.Fatal("WriteOutputs into a file path succeeded")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error does not name the failing path: %v", err)
	}

	// The happy path still writes all three artifacts.
	ok := t.TempDir()
	if err := WriteOutputs(res, ok); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{"txt", "csv", "json"} {
		if _, err := os.Stat(filepath.Join(ok, "fig2."+ext)); err != nil {
			t.Fatalf("missing %s artifact: %v", ext, err)
		}
	}
}
