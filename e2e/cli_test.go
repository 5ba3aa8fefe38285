package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/session"
)

// TestFaultMatrixQuick runs the fault-injection experiment end to end:
// injector, recovery stack and paired ablation.
func TestFaultMatrixQuick(t *testing.T) {
	t.Parallel()
	mustRun(t, bin(t, "ivnsim"), "-run", "faultmatrix", "-quick", "-seed", "2")
}

// TestAdaptiveQQuick runs the N=1000 event-channel inventory end to end,
// proving the fidelity switch stays fast enough for CI.
func TestAdaptiveQQuick(t *testing.T) {
	t.Parallel()
	mustRun(t, bin(t, "ivnsim"), "-run", "adaptiveq", "-quick", "-seed", "2")
}

// TestJSONResultsComplete requires every document of `-run all -json` to
// be a structurally complete typed result.
func TestJSONResultsComplete(t *testing.T) {
	t.Parallel()
	out, _ := mustRun(t, bin(t, "ivnsim"), "-run", "all", "-quick", "-seed", "2", "-json")
	dec := json.NewDecoder(bytes.NewReader(out))
	seen := 0
	for {
		var res engine.Result
		if err := dec.Decode(&res); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("document %d: %v", seen+1, err)
		}
		if err := checkResult(&res); err != nil {
			t.Fatalf("document %d (%s): %v", seen+1, res.ID, err)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no JSON documents on stdout")
	}
}

// checkResult demands an ID, a title, at least one column, rows whose
// arity matches the header, and at least one numeric cell carrying a
// value: the point of the typed pipeline over formatted strings.
func checkResult(res *engine.Result) error {
	if res.ID == "" || res.Title == "" {
		return fmt.Errorf("missing id or title")
	}
	if len(res.Columns) == 0 {
		return fmt.Errorf("no columns")
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	numeric := 0
	for i, row := range res.Rows {
		if len(row) != len(res.Columns) {
			return fmt.Errorf("row %d has %d cells, header has %d", i, len(row), len(res.Columns))
		}
		for j, c := range row {
			switch c.Kind {
			case engine.KindNumber, engine.KindTuple, engine.KindList:
				if c.Kind != engine.KindList && len(c.Values) == 0 {
					return fmt.Errorf("row %d cell %d: %s cell without values", i, j, c.Kind)
				}
				numeric += len(c.Values)
			case engine.KindString, engine.KindBool:
				// Formatted-only kinds: nothing numeric to demand.
			default:
				return fmt.Errorf("row %d cell %d: unknown kind %q", i, j, c.Kind)
			}
		}
	}
	if numeric == 0 {
		return fmt.Errorf("no numeric cell values anywhere in the table")
	}
	return nil
}

// TestTraceAcrossParallel writes the session event stream at -parallel 1
// and -parallel 4: the two files must be byte-identical and pass
// checkTrace. fig12 traces many one-event spans; invivo traces whole
// exchanges, so its clock must visibly advance within a span.
func TestTraceAcrossParallel(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		id       string
		advances bool
	}{{"fig12", false}, {"invivo", true}} {
		t.Run(tc.id, func(t *testing.T) {
			ivnsim, dir := bin(t, "ivnsim"), t.TempDir()
			var traces [2][]byte
			for i, par := range []string{"1", "4"} {
				path := filepath.Join(dir, "trace-p"+par+".jsonl")
				mustRun(t, ivnsim, "-run", tc.id, "-quick", "-seed", "2", "-parallel", par, "-trace", path)
				traces[i] = readFile(t, path)
			}
			if !bytes.Equal(traces[0], traces[1]) {
				t.Fatal("trace files differ across -parallel")
			}
			advanced, err := checkTrace(traces[0])
			if err != nil {
				t.Fatal(err)
			}
			if tc.advances && advanced == 0 {
				t.Fatal("no span has two events with an advancing clock")
			}
		})
	}
}

// traceLine mirrors the wire form of session.TraceLog.WriteJSONL.
type traceLine struct {
	Span string `json:"span"`
	session.Event
}

// checkTrace requires a non-empty stream of well-formed events (a span
// key, a known kind, a non-negative sim-clock time) whose clock never
// moves backwards within a span. It returns the number of spans in
// which the clock moves forward between two events.
func checkTrace(trace []byte) (advanced int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	events := 0
	last := map[string]float64{} // span -> previous timestamp
	moved := map[string]bool{}
	for n := 1; sc.Scan(); n++ {
		var ev traceLine
		// Kind round-trips through its string name, so a bogus kind
		// fails here.
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, fmt.Errorf("line %d: %w", n, err)
		}
		if ev.Span == "" {
			return 0, fmt.Errorf("line %d: empty span key", n)
		}
		if ev.T < 0 {
			return 0, fmt.Errorf("line %d (%s): negative timestamp %v", n, ev.Span, ev.T)
		}
		if prev, ok := last[ev.Span]; ok {
			if ev.T < prev {
				return 0, fmt.Errorf("line %d (%s): clock moved backwards %v -> %v", n, ev.Span, prev, ev.T)
			}
			if ev.T > prev && !moved[ev.Span] {
				moved[ev.Span] = true
				advanced++
			}
		}
		last[ev.Span] = ev.T
		events++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if events == 0 {
		return 0, fmt.Errorf("no events in the trace")
	}
	return advanced, nil
}

// TestJSONAcrossParallel renders the batched scratch-path experiments
// (fig9, fig13c) and the event-channel trial loops (population,
// adaptiveq) at -parallel 1 and -parallel 4: per-worker kit state must
// never leak into results. -json keeps stdout free of the wall-clock
// footer the text renderer adds.
func TestJSONAcrossParallel(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig9", "fig13c", "population", "adaptiveq"} {
		t.Run(id, func(t *testing.T) {
			ivnsim := bin(t, "ivnsim")
			p1, _ := mustRun(t, ivnsim, "-run", id, "-quick", "-seed", "2", "-parallel", "1", "-json")
			p4, _ := mustRun(t, ivnsim, "-run", id, "-quick", "-seed", "2", "-parallel", "4", "-json")
			if !bytes.Equal(p1, p4) {
				t.Fatalf("%s tables differ across -parallel", id)
			}
		})
	}
}

// TestMemprofileBadPathFails requires an unwritable -memprofile path to
// fail the invocation before any experiment runs.
func TestMemprofileBadPathFails(t *testing.T) {
	t.Parallel()
	bad := filepath.Join(t.TempDir(), "missing", "mem.pprof")
	requireEarlyFailure(t, "-run", "fig2", "-quick", "-memprofile", bad)
}

// TestTraceBadPathFails requires an unwritable -trace path to fail the
// invocation before any experiment runs.
func TestTraceBadPathFails(t *testing.T) {
	t.Parallel()
	bad := filepath.Join(t.TempDir(), "missing", "trace.jsonl")
	requireEarlyFailure(t, "-run", "fig12", "-quick", "-trace", bad)
}

// requireEarlyFailure runs ivnsim and requires exit 1 with nothing on
// stdout: the run failed before it printed a table.
func requireEarlyFailure(t *testing.T, args ...string) {
	t.Helper()
	out, stderr, code := run(t, bin(t, "ivnsim"), args...)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr)
	}
	if len(out) != 0 {
		t.Fatalf("the experiment ran before the failure:\n%s", out)
	}
}

// TestUnknownExperimentNamedOnce requires an unknown -run id to exit 2
// with the program name printed once.
func TestUnknownExperimentNamedOnce(t *testing.T) {
	t.Parallel()
	_, stderr, code := run(t, bin(t, "ivnsim"), "-run", "nosuch")
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	msg := string(stderr)
	if !strings.HasPrefix(msg, "ivnsim: unknown experiment \"nosuch\"") || strings.Count(msg, "ivnsim:") != 1 {
		t.Fatalf("stderr %q, want one \"ivnsim:\" prefix before the unknown id", msg)
	}
}

// TestOversizedTrialsRejected requires a trial count no run could hold
// in memory to exit 2 with the validation message, before any trial
// runs: it once crashed the process while sizing the trial storage.
func TestOversizedTrialsRejected(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"population", "fig12"} {
		out, stderr, code := run(t, bin(t, "ivnsim"), "-run", id, "-quick", "-trials", "4000000000000000000")
		if code != 2 || len(out) != 0 {
			t.Fatalf("%s: exit %d with %d bytes on stdout, want exit 2 and none\n%s", id, code, len(out), stderr)
		}
		if msg := string(stderr); !strings.HasPrefix(msg, "ivnsim: runspec: 4000000000000000000 trials is over the limit") {
			t.Fatalf("%s: stderr %q", id, msg)
		}
	}
}
