package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
	"ivn/internal/ivnsim/runspec"
)

// testServer boots a manager and an httptest server over its handler.
func testServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		abortClose(t, m)
	})
	return m, srv
}

// postSpec submits a spec and returns the decoded Status.
func postSpec(t *testing.T, srv *httptest.Server, spec runspec.Spec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/runs: %d %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// envelope is the GET /v1/runs/{id} document; Result keeps the raw
// bytes so byte-identity with the CLI output can be asserted.
type envelope struct {
	ID     string          `json:"id"`
	State  State           `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// getRun fetches one status envelope.
func getRun(t *testing.T, srv *httptest.Server, id string) envelope {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/runs/%s: %d %s", id, resp.StatusCode, raw)
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env
}

// pollDone polls until the run reaches a terminal state.
func pollDone(t *testing.T, srv *httptest.Server, id string, d time.Duration) envelope {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		env := getRun(t, srv, id)
		if env.State.terminal() {
			return env
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s after %v", id, env.State, d)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// cliJSON renders spec the way `ivnsim -json` does: the shared pipeline
// followed by RenderJSON.
func cliJSON(t *testing.T, spec runspec.Spec) []byte {
	t.Helper()
	res, _, err := runspec.Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.RenderJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonCLIEquivalence is the service's reason to exist stated as a
// test: every registered experiment, submitted over HTTP, yields result
// bytes identical to what the CLI prints for the same spec — both in
// the status envelope's result field and at the bare /result endpoint.
func TestDaemonCLIEquivalence(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 4, QueueDepth: 64})

	// Submit everything up front so the worker pool overlaps the runs,
	// then verify in submission order.
	type pending struct {
		spec runspec.Spec
		id   string
	}
	var runs []pending
	for _, e := range ivnsim.Registry() {
		spec := runspec.Spec{Experiment: e.ID, Seed: 11, Quick: true}
		st := postSpec(t, srv, spec)
		if st.Experiment != e.ID {
			t.Fatalf("submission echoed experiment %q, want %q", st.Experiment, e.ID)
		}
		runs = append(runs, pending{spec: spec, id: st.ID})
	}

	for _, run := range runs {
		env := pollDone(t, srv, run.id, 3*time.Minute)
		if env.State != StateDone {
			t.Fatalf("%s: run finished %s (%s)", run.spec.Experiment, env.State, env.Error)
		}
		want := cliJSON(t, run.spec)

		// The envelope's result field carries the CLI bytes verbatim
		// (RenderJSON output minus its trailing newline, preserved
		// through the hand-spliced envelope).
		got := append(append([]byte{}, env.Result...), '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("%s: envelope result diverged from CLI JSON", run.spec.Experiment)
			continue
		}

		// The bare result endpoint serves the document byte-for-byte.
		resp, err := http.Get(srv.URL + "/v1/runs/" + run.id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET result: %d %v", run.spec.Experiment, resp.StatusCode, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: /result bytes diverged from CLI JSON", run.spec.Experiment)
		}
	}
}

// TestHTTPCacheHit proves the second identical request never reaches
// the engine: the hit counter moves, the trial counter does not, and
// the served bytes match the first run exactly.
func TestHTTPCacheHit(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1})

	spec := runspec.Spec{Experiment: "fig9", Seed: 11, Quick: true}
	first := postSpec(t, srv, spec)
	env1 := pollDone(t, srv, first.ID, 2*time.Minute)
	if env1.State != StateDone {
		t.Fatalf("first run finished %s", env1.State)
	}
	trialsBefore := m.Metrics().Sched.Trials.Load()

	second := postSpec(t, srv, spec)
	if second.ID == first.ID {
		t.Fatal("second submission reused the first job id")
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second submission not a cache hit: %+v", second)
	}
	env2 := getRun(t, srv, second.ID)
	if !env2.Cached || !bytes.Equal(env1.Result, env2.Result) {
		t.Fatal("cached envelope diverged from the computed one")
	}
	if after := m.Metrics().Sched.Trials.Load(); after != trialsBefore {
		t.Fatalf("cache hit executed %d trials", after-trialsBefore)
	}

	// The hit is observable at /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"cache_hits 1\n", "cache_misses 1\n", "cache_hit_rate 0.5000\n", "jobs_submitted 2\n"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPTraceEquivalence compares the daemon's trace endpoint against
// the CLI's -trace output for the same spec.
func TestHTTPTraceEquivalence(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1})

	spec := runspec.Spec{Experiment: "fig12", Seed: 11, Quick: true, Trace: true}
	st := postSpec(t, srv, spec)
	if env := pollDone(t, srv, st.ID, 2*time.Minute); env.State != StateDone {
		t.Fatalf("traced run finished %s (%s)", env.State, env.Error)
	}
	resp, err := http.Get(srv.URL + "/v1/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d %s", resp.StatusCode, got)
	}

	_, tlog, err := runspec.Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tlog.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("daemon trace diverged from CLI -trace output")
	}
}

// TestHTTPCancel exercises DELETE on a running job end to end.
func TestHTTPCancel(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1})

	st := postSpec(t, srv, longSpec(41))
	job, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("submitted job not registered")
	}
	waitRunning(t, job)
	time.Sleep(100 * time.Millisecond)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	env := pollDone(t, srv, st.ID, 2*time.Second)
	if env.State != StateCancelled {
		t.Fatalf("state after DELETE = %s (%v elapsed)", env.State, time.Since(start))
	}

	// No result escapes a cancelled run.
	rr, err := http.Get(srv.URL + "/v1/runs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("GET result of cancelled run: %d", rr.StatusCode)
	}
}

// TestHTTPQueueFull maps ErrQueueFull to 429.
func TestHTTPQueueFull(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 1})

	st := postSpec(t, srv, longSpec(51))
	job, _ := m.Get(st.ID)
	waitRunning(t, job)
	postSpec(t, srv, longSpec(52)) // fills the single queue slot

	body, _ := json.Marshal(longSpec(53))
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: %d", resp.StatusCode)
	}
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil || msg["error"] == "" {
		t.Fatalf("429 body: %v, %v", msg, err)
	}
}

// TestHTTPValidation covers the 400/404 surfaces.
func TestHTTPValidation(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1})

	for name, body := range map[string]string{
		"malformed":     `{`,
		"unknown field": `{"experiment":"fig9","seeed":1}`,
		"unknown id":    `{"experiment":"no-such-experiment"}`,
		"bad trials":    `{"experiment":"fig9","trials":-4}`,
		"huge trials":   `{"experiment":"fig12","trials":1099511627776}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST returned %d, want 400", name, resp.StatusCode)
		}
	}

	for _, path := range []string{"/v1/runs/r424242", "/v1/runs/r424242/result", "/v1/runs/r424242/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}

	// Trace of an untraced (but real) run is 404 too.
	st := postSpec(t, srv, quickSpec("fig2", 61))
	pollDone(t, srv, st.ID, time.Minute)
	resp, err := http.Get(srv.URL + "/v1/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of untraced run: %d, want 404", resp.StatusCode)
	}

	// An oversized body is rejected before parsing.
	big := fmt.Sprintf(`{"experiment":%q}`, strings.Repeat("x", maxSpecBytes))
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized POST: %d, want 400", resp.StatusCode)
	}
}

// TestHTTPHealthz is the liveness contract a supervisor polls.
func TestHTTPHealthz(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}
