package e2e

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// TestShardMergeMatchesSingleProcess runs shard 0/2 and 1/2 of one spec
// into journals, merges them with -merge, and requires the merged stdout
// and all three -out renderings to equal the single-process run byte for
// byte.
func TestShardMergeMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	ivnsim, dir := bin(t, "ivnsim"), t.TempDir()
	spec := []string{"-run", "fig9", "-quick", "-seed", "2"}
	refDir := filepath.Join(dir, "ref")
	refJSON, _ := mustRun(t, ivnsim, append(spec, "-json", "-out", refDir)...)

	frags := t.TempDir()
	for i := 0; i < 2; i++ {
		mustRun(t, ivnsim, append(spec,
			"-shard", fmt.Sprintf("%d/2", i),
			"-journal", filepath.Join(frags, fmt.Sprintf("f%d.jsonl", i)))...)
	}

	mergedDir := filepath.Join(dir, "merged")
	mergedJSON, _ := mustRun(t, ivnsim, "-merge", frags, "-json", "-out", mergedDir)
	if !bytes.Equal(mergedJSON, refJSON) {
		t.Error("merged -json stdout differs from the single-process run")
	}
	for _, ext := range []string{"txt", "csv", "json"} {
		want := readFile(t, filepath.Join(refDir, "fig9."+ext))
		if got := readFile(t, filepath.Join(mergedDir, "fig9."+ext)); !bytes.Equal(got, want) {
			t.Errorf("merged fig9.%s differs from the single-process artifact", ext)
		}
	}
}

// fragSummary parses the fragment stderr summary
// "(exp shard i/n: recorded R, replayed P, journal ..., in ...)".
var fragSummary = regexp.MustCompile(`recorded (\d+), replayed (\d+)`)

// TestShardKillResume SIGKILLs a sharded run once its journal holds
// entries (a real mid-append kill, torn tail and all), resumes it, and
// requires the journaled trials to replay rather than re-execute and the
// merge to equal the single-process run byte for byte.
func TestShardKillResume(t *testing.T) {
	t.Parallel()
	ivnsim, frags := bin(t, "ivnsim"), t.TempDir()
	// population -trials 24 runs long enough (seconds) that the kill
	// lands mid-sweep, while single trials stay sub-second so the
	// journal fills quickly.
	spec := []string{"-run", "population", "-quick", "-seed", "2", "-trials", "24"}
	j0 := filepath.Join(frags, "f0.jsonl")

	cmd := exec.Command(ivnsim, append(spec, "-shard", "0/2", "-journal", j0)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the journal holds committed entries (size past the
	// header line). If the fragment finishes first the kill is a no-op
	// and the resume simply replays everything: still a valid check,
	// just a weaker one.
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if fi, err := os.Stat(j0); err == nil && fi.Size() > 512 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait() // the kill (or a clean exit) both land here

	_, stderr := mustRun(t, ivnsim, append(spec, "-shard", "0/2", "-journal", j0, "-resume")...)
	m := fragSummary.FindSubmatch(stderr)
	if m == nil {
		t.Fatalf("no fragment summary on resume stderr: %s", stderr)
	}
	if replayed, _ := strconv.Atoi(string(m[2])); replayed == 0 {
		t.Fatalf("resume replayed 0 trials, so the pre-kill journal was ignored: %s", stderr)
	}

	mustRun(t, ivnsim, append(spec, "-shard", "1/2", "-journal", filepath.Join(frags, "f1.jsonl"))...)
	refJSON, _ := mustRun(t, ivnsim, append(spec, "-json")...)
	mergedJSON, _ := mustRun(t, ivnsim, "-merge", frags, "-json")
	if !bytes.Equal(mergedJSON, refJSON) {
		t.Fatal("post-resume merge differs from the single-process run")
	}
}
