// Package service is the long-running simulation service behind the
// ivnsimd daemon: a bounded job queue with a fixed worker pool,
// cooperative cancellation per job, a content-keyed LRU cache of
// rendered results, and a metrics registry. It contains no HTTP — the
// transport in http.go is a thin layer over the Manager, and everything
// here is equally usable in-process (the equivalence tests drive it
// directly).
//
// Determinism contract: the service never changes what a run produces.
// Jobs execute through the same runspec pipeline as the CLI with a
// per-run engine.Limits, so the rendered result bytes are identical to
// `ivnsim -json` for the same spec at any worker count or parallelism.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/session"
)

// State is a job's lifecycle position. Transitions are monotonic:
// queued → running → {done, failed, cancelled}, with queued → cancelled
// allowed for jobs cancelled before a worker claims them, and cache
// hits born directly in done.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a job in state s can never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

var (
	// ErrQueueFull rejects a submission when the bounded queue has no
	// room; the HTTP layer maps it to 429.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed rejects submissions after Close has begun draining.
	ErrClosed = errors.New("service: manager closed")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("service: no such job")
)

// Config sizes a Manager. Zero values select defaults; Validate rejects
// negatives so a daemon config file cannot silently construct a
// degenerate service.
type Config struct {
	// Workers is the number of concurrent jobs (default 2).
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds queued-not-yet-running jobs (default 16).
	QueueDepth int `json:"queue_depth,omitempty"`
	// MaxParallel caps trial workers per job, 0 = GOMAXPROCS. It is the
	// per-run engine.Limits cap, hot-reloadable via Reconfigure.
	MaxParallel int `json:"max_parallel,omitempty"`
	// CacheEntries bounds the result cache (default 64), hot-reloadable.
	CacheEntries int `json:"cache_entries,omitempty"`
	// JournalPath, when set, journals job state (submit/end records) to
	// this file so a restarted daemon resubmits work that was queued or
	// running when it died, instead of dropping it. Empty disables.
	JournalPath string `json:"journal,omitempty"`
}

// Validate rejects configurations that cannot mean anything.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("service: negative workers %d", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("service: negative queue_depth %d", c.QueueDepth)
	}
	if c.MaxParallel < 0 {
		return fmt.Errorf("service: negative max_parallel %d", c.MaxParallel)
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("service: negative cache_entries %d", c.CacheEntries)
	}
	return nil
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	return c
}

// Job is one submitted run. All exported access goes through snapshot
// methods; fields are guarded by mu except the immutable identity
// fields set at submit time.
type Job struct {
	id   string
	key  string
	spec runspec.Spec
	// shards is the fan-out requested at submit (0 or 1 = unsharded). A
	// transport detail, not spec content: the key — and therefore the
	// cache entry and the result bytes — is the same at any fan-out.
	shards int

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, on reaching a terminal state

	mu         sync.Mutex
	state      State
	cached     bool
	userCancel bool // Cancel was called: terminal cancellation is a client decision
	errMsg     string
	resultJSON []byte  // RenderJSON bytes, trailing newline included
	traceJSONL []byte  // session event stream, nil when the spec had Trace off
	shardCaps  []int64 // per-sub-job resolved worker caps, set when sharded
}

// Status is the immutable snapshot the transport serializes. Field
// order is the wire order of the status document.
type Status struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	State      State  `json:"state"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	// Shards is the fan-out the job ran with (absent when unsharded).
	Shards int `json:"shards,omitempty"`
	// ShardCaps lists each shard sub-job's resolved trial-worker cap.
	// The aggregate sched_cap on /metrics is a union max across runs
	// with possibly different caps; these are the per-run values.
	ShardCaps []int64 `json:"shard_caps,omitempty"`
}

// ID returns the job's manager-unique id.
func (j *Job) ID() string { return j.id }

// Key returns the job's content key (runspec.Spec.Key).
func (j *Job) Key() string { return j.key }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		Experiment: j.spec.Experiment,
		Key:        j.key,
		State:      j.state,
		Cached:     j.cached,
		Error:      j.errMsg,
		ShardCaps:  j.shardCaps,
	}
	if j.shards > 1 {
		st.Shards = j.shards
	}
	return st
}

// Result returns the rendered JSON result bytes (exactly what
// `ivnsim -json` prints for the same spec) once the job is done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.resultJSON, true
}

// Trace returns the JSONL event stream for done jobs of traced specs.
func (j *Job) Trace() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.traceJSONL == nil {
		return nil, false
	}
	return j.traceJSONL, true
}

// Manager owns the queue, the worker pool, the cache, and the job
// table. Construct with New, submit with Submit, shut down with Close.
type Manager struct {
	metrics *Metrics
	cache   *resultCache
	journal *jobJournal // nil when Config.JournalPath is empty

	// maxParallel is the per-job trial-worker cap; atomic so SIGHUP
	// reconfiguration never races job starts.
	maxParallel atomicInt

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    uint64
	closed bool
}

// atomicInt is a tiny alias-free wrapper so Config ints and atomics
// don't mix up call sites.
type atomicInt struct {
	v sync.Mutex
	n int
}

func (a *atomicInt) store(n int) { a.v.Lock(); a.n = n; a.v.Unlock() }
func (a *atomicInt) load() int   { a.v.Lock(); defer a.v.Unlock(); return a.n }

// New builds a Manager and starts its worker pool. With a JournalPath
// configured, jobs that were queued or running when the previous
// process died are resubmitted before New returns (counted by the
// jobs_resumed metric); their results are recomputed under fresh ids.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var journal *jobJournal
	var pending []pendingJob
	if cfg.JournalPath != "" {
		var err error
		journal, pending, err = openJobJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		//ivn:allow determinism the clock only anchors the metrics uptime/rate windows, never a result
		metrics: newMetrics(time.Now()),
		cache:   newResultCache(cfg.CacheEntries),
		journal: journal,
		baseCtx: ctx, baseCancel: cancel,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  make(map[string]*Job),
	}
	m.maxParallel.store(cfg.MaxParallel)
	m.metrics.queueDepth = func() int64 { return int64(len(m.queue)) }
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		//ivn:allow goroutinehygiene fixed-size worker pool joined by wg in Close; jobs inside run through the sanctioned engine runners
		go m.worker()
	}
	for _, p := range pending {
		if _, err := m.submit(p.spec, p.shards); err != nil {
			_ = m.Close(context.Background())
			return nil, fmt.Errorf("service: resume journaled job: %w", err)
		}
		m.metrics.JobsResumed.Add(1)
	}
	return m, nil
}

// Metrics exposes the registry for the transport's /metrics endpoint
// and for tests.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// maxShards bounds a sharded submission's fan-out: each shard costs a
// goroutine tree and a resident in-memory journal, and past the
// machine's core count extra shards only add overhead.
const maxShards = 64

// Submit validates and enqueues a run. Cache hits return a job already
// in StateDone carrying the cached bytes — no trial executes. A full
// queue returns ErrQueueFull without registering anything.
func (m *Manager) Submit(spec runspec.Spec) (*Job, error) {
	return m.submit(spec, 0)
}

// SubmitSharded enqueues a run whose trial schedule executes as shards
// in-memory shard fragments recombined before the result renders. The
// fan-out is a transport parameter, not spec content: the job's key,
// cache entry and result bytes are identical to an unsharded submission
// of the same spec, so sharded and plain clients share cache hits.
func (m *Manager) SubmitSharded(spec runspec.Spec, shards int) (*Job, error) {
	if err := checkShards(spec, shards); err != nil {
		return nil, err
	}
	return m.submit(spec, shards)
}

// checkShards is the sharded-submission check. Journaled submit records
// with a fan-out pass it too (loadPending), so a job journal cannot
// resume what a client could not submit.
func checkShards(spec runspec.Spec, shards int) error {
	if shards < 2 || shards > maxShards {
		return fmt.Errorf("service: shard count %d out of range [2, %d]", shards, maxShards)
	}
	if spec.Trace {
		// Fragment trials replay during the merge pass and emit no
		// events; a sharded trace would be silently incomplete.
		return fmt.Errorf("service: trace cannot be combined with sharded execution")
	}
	return nil
}

// submit is the common enqueue path; shards > 1 selects fragment
// execution in runJob.
func (m *Manager) submit(spec runspec.Spec, shards int) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Journal != "" || spec.Resume || spec.Shard != nil {
		// The daemon journals and shards on its own terms (Config
		// JournalPath, ?shards=N); spec-carried execution details would
		// let one client write server-side files or split the cache key
		// space, so they are transport errors here.
		return nil, fmt.Errorf("service: journal/shard/resume are execution details the daemon manages — request sharding with ?shards=N")
	}
	spec = spec.Normalize()
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("r%06d", m.seq)

	if ent, ok := m.cache.get(key); ok {
		job := &Job{
			id: id, key: key, spec: spec,
			state: StateDone, cached: true,
			resultJSON: ent.resultJSON, traceJSONL: ent.traceJSONL,
			done: make(chan struct{}),
		}
		close(job.done)
		m.jobs[id] = job
		m.mu.Unlock()
		m.metrics.JobsSubmitted.Add(1)
		m.metrics.CacheHits.Add(1)
		return job, nil
	}

	ctx, cancel := context.WithCancel(m.baseCtx)
	job := &Job{
		id: id, key: key, spec: spec, shards: shards,
		ctx: ctx, cancel: cancel,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	select {
	case m.queue <- job:
		m.jobs[id] = job
		m.mu.Unlock()
		// Best-effort, like the end records: a lost submit record costs
		// the job's redo guarantee across one restart, never the job
		// itself (it is already queued in this process).
		_ = m.journal.submit(id, shards, spec)
		m.metrics.JobsSubmitted.Add(1)
		m.metrics.CacheMisses.Add(1)
		return job, nil
	default:
		m.seq-- // the id was never exposed; reuse it
		m.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
}

// Get looks a job up by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Queued jobs are cancelled
// immediately (a worker that later drains them skips without running a
// trial); running jobs get their context cancelled and reach
// StateCancelled as soon as the engine observes it — between trials, so
// promptly even mid-sweep. Cancelling a terminal job is a no-op. The
// returned state is the job's state at return time.
func (m *Manager) Cancel(id string) (State, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return "", ErrNotFound
	}
	job.mu.Lock()
	switch job.state {
	case StateQueued:
		job.state = StateCancelled
		job.userCancel = true
		job.errMsg = context.Canceled.Error()
		close(job.done)
		job.mu.Unlock()
		job.cancel()
		_ = m.journal.end(job.id)
		m.metrics.JobsCancelled.Add(1)
		return StateCancelled, nil
	case StateRunning:
		job.userCancel = true
		job.mu.Unlock()
		job.cancel()
		return StateRunning, nil
	default:
		s := job.state
		job.mu.Unlock()
		return s, nil
	}
}

// Reconfigure applies the hot-reloadable subset of Config: the per-job
// parallelism cap and the cache capacity. Worker count and queue depth
// are fixed at New (the daemon logs them as restart-required).
func (m *Manager) Reconfigure(maxParallel, cacheEntries int) {
	if maxParallel >= 0 {
		m.maxParallel.store(maxParallel)
	}
	if cacheEntries > 0 {
		m.cache.setCapacity(cacheEntries)
	}
}

// Close drains the service: no new submissions, queued jobs still run
// to completion, and Close returns when every worker has exited. If ctx
// expires first, running jobs are aborted through their contexts (they
// finish as cancelled) and Close still waits for the workers before
// returning ctx's error.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	//ivn:allow goroutinehygiene bounded waiter: closes drained after wg.Wait and is always joined by one of the selects below
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		m.baseCancel() // release the base context
		return m.journal.close()
	case <-ctx.Done():
		m.baseCancel() // abort running jobs; workers observe and exit
		<-drained
		_ = m.journal.close()
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob drives one job through the shared runspec pipeline and files
// the outcome. It never panics the worker: any run error lands in the
// job's terminal state.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued {
		// Cancelled while queued; Cancel already closed done.
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.mu.Unlock()

	// Deferred first, so it runs last: Done fires only once the terminal
	// state, the end record and the in-flight count are all settled.
	defer close(job.done)
	m.metrics.JobsInFlight.Add(1)
	defer m.metrics.JobsInFlight.Add(-1)
	// The end record is terminal-state bookkeeping, not an outcome: it
	// runs after the state is filed below, and best-effort — a lost
	// record costs one redundant re-run after a restart, never lost work.
	// A job that ends cancelled WITHOUT a client Cancel was aborted by
	// shutdown: that is unfinished work the next process owes, so its
	// submit record deliberately stays un-ended and it resumes.
	defer func() {
		job.mu.Lock()
		st, user := job.state, job.userCancel
		job.mu.Unlock()
		if st == StateCancelled && !user {
			return
		}
		_ = m.journal.end(job.id)
	}()

	var res *engine.Result
	var tlog *session.TraceLog
	var err error
	if job.shards > 1 {
		res, err = m.runSharded(job)
	} else {
		lim := engine.Limits{
			MaxParallel: m.maxParallel.load(),
			Metrics:     &m.metrics.Sched,
		}
		res, tlog, err = runspec.Run(job.ctx, lim, job.spec, nil)
	}

	job.mu.Lock()
	defer job.mu.Unlock()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			job.state = StateCancelled
			job.errMsg = context.Canceled.Error()
			m.metrics.JobsCancelled.Add(1)
		} else {
			job.state = StateFailed
			job.errMsg = err.Error()
			m.metrics.JobsFailed.Add(1)
		}
		return
	}

	var out bytes.Buffer
	if rerr := engine.RenderJSON(res, &out); rerr != nil {
		job.state = StateFailed
		job.errMsg = rerr.Error()
		m.metrics.JobsFailed.Add(1)
		return
	}
	entry := &cacheEntry{key: job.key, resultJSON: out.Bytes()}
	if tlog != nil {
		var tb bytes.Buffer
		if terr := tlog.WriteJSONL(&tb); terr != nil {
			job.state = StateFailed
			job.errMsg = terr.Error()
			m.metrics.JobsFailed.Add(1)
			return
		}
		entry.traceJSONL = tb.Bytes()
	}
	job.state = StateDone
	job.resultJSON = entry.resultJSON
	job.traceJSONL = entry.traceJSONL
	m.cache.put(entry)
	m.metrics.JobsCompleted.Add(1)
}

// runSharded executes one job as job.shards in-memory shard fragments
// fanned out through the engine's own scheduler, then recombines them
// with runspec.Recombine — the CLI's -merge path — so the result bytes
// are byte-identical to an unsharded run of the same spec.
//
// The fan-out happens inside this job's worker slot (engine.ForEachCtx,
// not the manager queue), so sharded jobs can never deadlock the worker
// pool: a pool of one worker still completes a many-shard job.
func (m *Manager) runSharded(job *Job) (*engine.Result, error) {
	shards := job.shards
	total := m.maxParallel.load()
	if total <= 0 {
		total = engine.MaxParallel()
	}
	// Each fragment gets an equal slice of the job's trial-worker budget
	// so the fan-out multiplies concurrency by ~1, not by shards.
	perCap := total / shards
	if perCap < 1 {
		perCap = 1
	}
	frags := make([]*engine.Journal, shards)
	subs := make([]*engine.SchedMetrics, shards)
	err := engine.ForEachCtx(job.ctx, engine.Limits{MaxParallel: shards}, shards, func(i int) error {
		frag := engine.NewJournal(nil)
		sub := &engine.SchedMetrics{Parent: &m.metrics.Sched}
		frags[i], subs[i] = frag, sub
		lim := engine.Limits{
			MaxParallel: perCap,
			Metrics:     sub,
			Shard:       engine.Shard{Index: i, Count: shards},
			Journal:     frag,
		}
		// A fragment's table output reduces an incomplete sample set and
		// is discarded; its journal is the product.
		_, _, rerr := runspec.Run(job.ctx, lim, job.spec, nil)
		return rerr
	})
	if err != nil {
		return nil, err
	}

	var recorded int64
	for _, frag := range frags {
		recorded += frag.Recorded()
	}
	caps := make([]int64, shards)
	for i, sub := range subs {
		caps[i] = sub.Cap.Load()
	}
	job.mu.Lock()
	job.shardCaps = caps
	job.mu.Unlock()
	m.metrics.ShardSubjobs.Add(int64(shards))
	m.metrics.JournalRecorded.Add(recorded)

	lim := engine.Limits{
		MaxParallel: total,
		Metrics:     &m.metrics.Sched,
	}
	res, replayed, err := runspec.Recombine(job.ctx, lim, job.spec, frags)
	if err != nil {
		return nil, err
	}
	m.metrics.JournalReplayed.Add(replayed)
	return res, nil
}
