package runspec

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"ivn/internal/engine"
)

// Format compatibility: testdata/compat holds the shard fragments of
// `ivnsim -run fig9 -quick -seed 11 -parallel 1 -shard i/2 -journal F`
// for i = 0, 1, written by ivnsim built from commit bdf1ca3 with
// -buildvcs=false, so the key's build stamp is the one test binaries
// carry. Fragment files are an on-disk contract: files an earlier build
// wrote must merge and resume here, and this build must write the same
// bytes.

var compatFragments = []string{
	filepath.Join("testdata", "compat", "fig9.s0.jsonl"),
	filepath.Join("testdata", "compat", "fig9.s1.jsonl"),
}

// compatSpec is the whole run the compat fragments belong to.
func compatSpec() Spec { return Spec{Experiment: "fig9", Seed: 11, Quick: true} }

func TestCompatFragmentsMergeToGolden(t *testing.T) {
	res, spec, err := Merge(context.Background(), engine.Limits{}, compatFragments)
	if err != nil {
		t.Fatal(err)
	}
	if want := compatSpec(); spec.Experiment != want.Experiment || spec.Seed != want.Seed || !spec.Quick {
		t.Fatalf("merged spec %+v, want %+v", spec, want)
	}
	for ext, render := range map[string]engine.Renderer{"txt": engine.RenderText, "csv": engine.RenderCSV} {
		want, err := os.ReadFile(filepath.Join("..", "testdata", "golden", "fig9."+ext))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := render(res, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("fig9.%s merged from the compat fragments differs from the golden:\ngot:\n%s\nwant:\n%s", ext, buf.Bytes(), want)
		}
	}
}

func TestCompatFragmentResumes(t *testing.T) {
	want, err := os.ReadFile(compatFragments[0])
	if err != nil {
		t.Fatal(err)
	}
	spec := compatSpec()
	spec.Shard = &engine.Shard{Index: 0, Count: 2}
	spec.Journal = filepath.Join(t.TempDir(), "fig9.s0.jsonl")
	spec.Resume = true
	if err := os.WriteFile(spec.Journal, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var m engine.SchedMetrics
	j, err := RunFragment(context.Background(), engine.Limits{Metrics: &m}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The fragment is complete: every owned trial replays, none runs, and
	// nothing is appended.
	if j.Recorded() != 0 || j.Replayed() == 0 || m.Trials.Load() != 0 {
		t.Fatalf("resume recorded %d, replayed %d, executed %d; want 0, >0, 0", j.Recorded(), j.Replayed(), m.Trials.Load())
	}
	got, err := os.ReadFile(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resuming a complete fragment changed its bytes")
	}
}

func TestFragmentBytesMatchCompatFixture(t *testing.T) {
	dir := t.TempDir()
	for i, path := range compatFragments {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec := compatSpec()
		spec.Shard = &engine.Shard{Index: i, Count: 2}
		spec.Journal = filepath.Join(dir, filepath.Base(path))
		// One worker appends entries in trial order, as the fixture's
		// -parallel 1 run did.
		if _, err := RunFragment(context.Background(), engine.Limits{MaxParallel: 1}, spec); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(spec.Journal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shard %d/2 fragment bytes differ from %s", i, path)
		}
	}
}
