package e2e

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonServesCLIBytes submits a quick run to ivnsimd, polls it to
// completion and requires the served result to equal `ivnsim -json` for
// the same spec byte for byte. The identical spec resubmitted must be a
// cache hit that /metrics counts. startDaemon checks the SIGTERM drain.
func TestDaemonServesCLIBytes(t *testing.T) {
	want, _ := mustRun(t, bin(t, "ivnsim"), "-run", "fig9", "-seed", "2", "-quick", "-json")
	base := startDaemon(t)
	const spec = `{"experiment":"fig9","seed":2,"quick":true}`

	first := submit(t, base, spec)
	waitState(t, base, first.ID, "done", 600)
	if got := get(t, base+"/v1/runs/"+first.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatalf("daemon result for %s differs from the CLI reference (%d vs %d bytes)", first.ID, len(got), len(want))
	}

	second := submit(t, base, spec)
	if second.State != "done" || !second.Cached {
		t.Fatalf("second submission not a cache hit: state %s cached %v", second.State, second.Cached)
	}
	metrics := string(get(t, base+"/metrics"))
	for _, line := range []string{"cache_hits 1\n", "cache_misses 1\n"} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(line), metrics)
		}
	}
}

// TestDaemonCancel submits a population sweep that takes tens of seconds
// uninterrupted, cancels it with DELETE mid-run, and requires the
// terminal cancelled state within the 2-second budget (20 polls at
// 100 ms).
func TestDaemonCancel(t *testing.T) {
	base := startDaemon(t)
	long := submit(t, base, `{"experiment":"population","seed":2,"quick":true,"trials":40}`)
	waitState(t, base, long.ID, "running", 300)
	time.Sleep(200 * time.Millisecond) // let it get into the sweep proper
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/runs/"+long.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE returned %d", resp.StatusCode)
	}
	waitState(t, base, long.ID, "cancelled", 20)
}
