package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// committedDigests pins the rendered bytes of every default-seed result
// the benchmark produces at full size: sha256 of the RenderJSON bytes,
// keyed by specKey. Regenerate with --write-digests only when a change
// is meant to alter results.
//
//go:embed digests.json
var committedDigests []byte

// checker counts operations and checks every result they return.
type checker struct {
	// ref is the committed digest table; nil for tiny runs, whose
	// results it does not cover.
	ref map[string]string

	mu        sync.Mutex
	first     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newChecker(o options) *checker {
	c := &checker{first: map[string]string{}}
	if o.trials == 0 {
		if err := json.Unmarshal(committedDigests, &c.ref); err != nil {
			panic(fmt.Sprintf("perfbench: embedded digests.json: %v", err))
		}
	}
	return c
}

// specKey names a spec's result in the digest tables.
func specKey(s runspec.Spec) string {
	k := fmt.Sprintf("%s seed=%d quick=%v", s.Experiment, s.Seed, s.Quick)
	if s.Trials > 0 {
		k += fmt.Sprintf(" trials=%d", s.Trials)
	}
	return k
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// attempt counts one operation, and a failure when err is non-nil.
func (c *checker) attempt(what string, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failLocked(what, err)
		return false
	}
	return true
}

// fail counts a failure of an operation already counted as attempted.
func (c *checker) fail(what string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(what, err)
}

func (c *checker) failLocked(what string, err error) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// verify checks result bytes for key: against the committed digest
// when the table has the key (requireRef makes a missing entry an
// error), and against the first bytes seen for key in this run.
func (c *checker) verify(key string, body []byte, requireRef bool) error {
	d := digest(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ref != nil {
		want, ok := c.ref[key]
		switch {
		case ok && want != d:
			return fmt.Errorf("result digest %.12s differs from committed %.12s", d, want)
		case !ok && requireRef:
			return fmt.Errorf("no committed digest for %q", key)
		}
	}
	if prev, ok := c.first[key]; ok && prev != d {
		return fmt.Errorf("result digest %.12s differs from the first pass's %.12s", d, prev)
	}
	c.first[key] = d
	return nil
}

// renderSpec runs a spec in-process through the CLI's pipeline and
// returns its RenderJSON bytes.
func renderSpec(ctx context.Context, lim engine.Limits, s runspec.Spec) ([]byte, error) {
	res, _, err := runspec.Run(ctx, lim, s, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := engine.RenderJSON(res, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pinnedSpecs lists every spec whose default-seed digest is committed.
func pinnedSpecs() []runspec.Spec {
	o := options{seed: defaultSeed}
	specs := append(batchSpecs(denseExperiments, true, o), batchSpecs(cibExperiments, false, o)...)
	specs = append(specs, hotSpecs(0)...)
	for client := 0; client < daemonClients; client++ {
		for k := 0; k < coldPinned; k++ {
			specs = append(specs, coldSpec(defaultSeed, 0, client, k))
		}
	}
	return specs
}

// writeDigests recomputes the committed digest table.
func writeDigests(path string) error {
	table := map[string]string{}
	for _, s := range pinnedSpecs() {
		b, err := renderSpec(context.Background(), engine.Limits{}, s)
		if err != nil {
			return fmt.Errorf("%s: %w", specKey(s), err)
		}
		table[specKey(s)] = digest(b)
	}
	// encoding/json writes map keys sorted, so the file diffs cleanly.
	return writeJSON(path, table)
}
