package service

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"ivn/internal/ivnsim/runspec"
	"ivn/internal/recordlog"
)

// The job journal is the daemon's restart story: every accepted
// submission appends a "submit" record (the spec plus its shard fan-out),
// every terminal job appends an "end" record, and a restarted manager
// resubmits each submit that never reached its end. Records are framed by
// internal/recordlog, like the engine's trial journal: one Write per
// record, so a SIGKILL tears at most the final line, which the loader
// drops.

// jobRecord is one journal line.
type jobRecord struct {
	Op string `json:"op"` // "submit" or "end"
	ID string `json:"id"`
	// Shards is the submit's shard fan-out (0 = unsharded).
	Shards int `json:"shards,omitempty"`
	// Spec is the submitted spec's canonical serialization.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// pendingJob is a submit that never ended: work a restarted daemon owes.
type pendingJob struct {
	shards int
	spec   runspec.Spec
}

// jobJournal appends job-state records to a file.
type jobJournal struct {
	mu sync.Mutex
	f  *os.File
}

// openJobJournal loads the pending jobs from path (if it exists) and
// reopens the file fresh: resubmitted jobs get new submit records under
// their new ids, so the file never grows across restarts with stale
// history.
func openJobJournal(path string) (*jobJournal, []pendingJob, error) {
	pending, err := loadPending(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}
	return &jobJournal{f: f}, pending, nil
}

// loadPending replays a journal file into the submit-without-end set,
// in submission order. A missing file means a fresh daemon; a torn
// final line is dropped by the record log.
func loadPending(path string) ([]pendingJob, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: job journal: %w", err)
	}
	defer f.Close()

	type entry struct {
		order int
		job   pendingJob
	}
	open := map[string]entry{}
	order := 0
	_, err = recordlog.Scan(f, func(raw []byte) error {
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		switch rec.Op {
		case "submit":
			spec, err := runspec.ParseJSON(rec.Spec)
			if err != nil {
				return err
			}
			if rec.Shards != 0 {
				if err := checkShards(spec, rec.Shards); err != nil {
					return err
				}
			}
			open[rec.ID] = entry{order: order, job: pendingJob{shards: rec.Shards, spec: spec}}
			order++
		case "end":
			delete(open, rec.ID)
		default:
			return fmt.Errorf("unknown op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: job journal %s: %w", path, err)
	}

	ents := make([]entry, 0, len(open))
	for _, e := range open {
		ents = append(ents, e)
	}
	// Resubmission preserves original submission order, so a restarted
	// queue drains in the order clients submitted.
	sort.Slice(ents, func(i, k int) bool { return ents[i].order < ents[k].order })
	jobs := make([]pendingJob, len(ents))
	for i, e := range ents {
		jobs[i] = e.job
	}
	return jobs, nil
}

// append writes one record as a single Write call.
func (jj *jobJournal) append(rec jobRecord) error {
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if err := recordlog.Append(jj.f, rec); err != nil {
		return fmt.Errorf("service: job journal write: %w", err)
	}
	return nil
}

// submit records an accepted submission.
func (jj *jobJournal) submit(id string, shards int, spec runspec.Spec) error {
	if jj == nil {
		return nil
	}
	canon, err := spec.Canonical()
	if err != nil {
		return err
	}
	return jj.append(jobRecord{Op: "submit", ID: id, Shards: shards, Spec: canon})
}

// end records a job reaching a terminal state. Best-effort by design:
// a failed end record costs one redundant re-run after a restart, never
// lost work, so callers on terminal paths ignore the error.
func (jj *jobJournal) end(id string) error {
	if jj == nil {
		return nil
	}
	return jj.append(jobRecord{Op: "end", ID: id})
}

// close releases the file.
func (jj *jobJournal) close() error {
	if jj == nil {
		return nil
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	return jj.f.Close()
}
