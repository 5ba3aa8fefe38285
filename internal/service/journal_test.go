package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivn/internal/ivnsim/runspec"
)

// copyJournal stages a job journal in a temp dir: New rewrites the file
// it resumes from.
func copyJournal(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testdata/compat/jobs.jsonl was written by ivnsimd built from commit
// bdf1ca3, so it pins the job-journal bytes an earlier build wrote: one
// worker, r000001 (fig9) done, r000002 (adaptiveq, full size) running,
// r000003 (fig10a, ?shards=2) and r000005 (fig13a) queued, r000004
// (fig12) cancelled by its client while queued, then SIGKILL.
func TestCompatJobJournalResumesUnfinishedJobs(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "compat", "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := copyJournal(t, fixture)
	m, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)
	if got := m.Metrics().JobsResumed.Load(); got != 3 {
		t.Fatalf("JobsResumed = %d, want 3", got)
	}
	want := []struct {
		id, experiment string
		shards         int
	}{{"r000001", "adaptiveq", 0}, {"r000002", "fig10a", 2}, {"r000003", "fig13a", 0}}
	for _, w := range want {
		job, ok := m.Get(w.id)
		if !ok {
			t.Fatalf("resumed job %s not found", w.id)
		}
		if st := job.Status(); st.Experiment != w.experiment || st.Shards != w.shards {
			t.Errorf("%s resumed as %s with %d shards, want %s with %d", w.id, st.Experiment, st.Shards, w.experiment, w.shards)
		}
	}
	if _, ok := m.Get("r000004"); ok {
		t.Error("more jobs resumed than the journal left unfinished")
	}

	// The resubmissions are journaled again under their new ids, in the
	// old build's bytes: each submit line is the fixture's line for the
	// same job with only the id changed.
	oldIDs := map[string]string{"r000001": "r000002", "r000002": "r000003", "r000003": "r000005"}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	submits := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec jobRecord
		if json.Unmarshal(line, &rec) != nil || rec.Op != "submit" {
			continue
		}
		submits++
		old := strings.Replace(string(line), `"id":"`+rec.ID+`"`, `"id":"`+oldIDs[rec.ID]+`"`, 1)
		if !bytes.Contains(fixture, []byte(old)) {
			t.Errorf("resubmitted record %q is not the fixture's %q", line, old)
		}
	}
	if submits != 3 {
		t.Errorf("rewritten journal holds %d submit records, want 3", submits)
	}
}

func TestResumedRecordsPassSubmitChecks(t *testing.T) {
	canon, err := runspec.Spec{Experiment: "fig9", Seed: 2, Quick: true}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runspec.Spec{Experiment: "fig9", Seed: 2, Quick: true, Trace: true}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, record, want string }{
		{"too-many-shards", `{"op":"submit","id":"r000001","shards":100000,"spec":` + string(canon) + "}\n", "out of range"},
		{"one-shard", `{"op":"submit","id":"r000001","shards":1,"spec":` + string(canon) + "}\n", "out of range"},
		{"traced-sharded", `{"op":"submit","id":"r000001","shards":3,"spec":` + string(traced) + "}\n", "trace"},
	} {
		path := copyJournal(t, []byte(tc.record))
		m, err := New(Config{Workers: 1, JournalPath: path})
		if err == nil {
			abortClose(t, m)
			t.Errorf("%s: journaled record accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		// Rejected before the journal is reopened: the record survives
		// for the operator to inspect.
		if data, _ := os.ReadFile(path); string(data) != tc.record {
			t.Errorf("%s: journal rewritten to %q by a failed start", tc.name, data)
		}
	}
}
