// Package e2e drives the real ivnsim and ivnsimd binaries end to end:
// the checks that a process boundary, a signal or a socket can break and
// an in-process test cannot see. The binaries are built once, on first
// use, so `go test -run '^$' -bench . ./...` builds nothing here.
//
// Go's test cache does not track the cmd/ sources the build reads, so
// run the package uncached:
//
//	go test -count=1 ./e2e/
//	go test -count=1 -run TestShardKillResume ./e2e/
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain only removes the binaries the first test built.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		_ = os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// bin returns the path of the named command (ivnsim or ivnsimd),
// building both into a temp dir the first time any test asks.
func bin(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "ivn-e2e")
		if buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "ivn/cmd/ivnsim", "ivn/cmd/ivnsimd").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

// run executes bin with args and returns its stdout, its stderr and its
// exit code. Only a process that cannot be started fails the test.
func run(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// mustRun is run for an invocation that has to exit 0.
func mustRun(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	stdout, stderr, code := run(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\n%s", filepath.Base(bin), args, code, stderr)
	}
	return stdout, stderr
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startDaemon launches ivnsimd on an ephemeral loopback port and returns
// its base URL once it reports `ivnsimd: listening on ADDR`. Cleanup
// sends SIGTERM and requires the daemon to drain and exit 0 by itself.
func startDaemon(t *testing.T) string {
	t.Helper()
	cmd := exec.Command(bin(t, "ivnsimd"), "-addr", "127.0.0.1:0")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The reader drains stdout to EOF, which arrives when the daemon
	// exits; only then may Wait close the pipe.
	addrc := make(chan string, 1)
	eof := make(chan struct{})
	//ivn:allow goroutinehygiene the daemon's stdout must be read beside the test; the reader ends at the daemon's exit, which Cleanup awaits
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "ivnsimd: listening on "); ok {
				addrc <- addr
			}
		}
	}()
	// The daemon bounds its own drain and exits 1 when it overruns.
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM) // an exited daemon is reported by Wait
		<-eof
		if err := cmd.Wait(); err != nil {
			t.Errorf("ivnsimd did not drain cleanly on SIGTERM: %v\n%s", err, errb.Bytes())
		}
	})
	select {
	case addr := <-addrc:
		return "http://" + addr
	case <-eof:
		t.Fatal("ivnsimd exited before reporting a listen address")
	case <-time.After(10 * time.Second):
		t.Fatal("ivnsimd never reported a listen address")
	}
	return ""
}

// status mirrors the service's job status document.
type status struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// submit POSTs a spec document, requires 202 Accepted and decodes the
// status reply.
func submit(t *testing.T, base, spec string) status {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs %s: %d %s", spec, resp.StatusCode, body)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status document: %v", err)
	}
	return st
}

// get fetches a URL, requiring 200 OK.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// waitState polls run id every 100 ms until it reports state, failing
// after attempts polls or on reaching any other terminal state.
func waitState(t *testing.T, base, id, state string, attempts int) {
	t.Helper()
	last := ""
	for i := 0; i < attempts; i++ {
		var st status
		if err := json.Unmarshal(get(t, base+"/v1/runs/"+id), &st); err != nil {
			t.Fatalf("status document: %v", err)
		}
		last = st.State
		if st.State == state {
			return
		}
		if st.State == "failed" || st.State == "cancelled" || st.State == "done" {
			t.Fatalf("run %s reached %s (%s), want %s", id, st.State, st.Error, state)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("run %s still %s after %d polls, want %s", id, last, attempts, state)
}
