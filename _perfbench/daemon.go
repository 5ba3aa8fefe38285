package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/service"
)

// daemon_mix shape. Each of daemonClients closed-loop clients runs, per
// pass, coldPerPass cache-miss requests, each followed by hotPerCold
// cache-hit requests. Hot requests are cheap and their tail is noisy,
// so they outnumber cold ones.
const (
	daemonClients = 2
	coldPerPass   = 16
	hotPerCold    = 4
	// shardEvery: every shardEvery-th cold request asks for ?shards=2.
	shardEvery = 4
	// coldCheckEvery: two of every coldCheckEvery cold results, one plain
	// and one sharded, are recomputed in-process after the timed window
	// and compared byte for byte.
	coldCheckEvery = 8
	// coldPinned cold requests per client have committed digests at the
	// default seed (the first pass's).
	coldPinned = coldPerPass
	// daemonSetups is the number of daemon starts whose median is
	// setup_s; a daemon set-up is short, so more of them are sampled.
	daemonSetups = 5
	// hotSeed is the fixed seed of the hot set.
	hotSeed = 42
	// pollInterval spaces status polls of a running cold job.
	pollInterval = time.Millisecond
)

// daemonExperiments are the daemon's quick specs, hot and cold.
var daemonExperiments = []string{"fig9", "fig12", "fig13a", "fig6", "invivo", "faultmatrix", "fig11", "ablation-miller"}

// hotSpecs is the hot set: every daemon experiment at the fixed seed.
func hotSpecs(trials int) []runspec.Spec {
	specs := make([]runspec.Spec, len(daemonExperiments))
	for i, id := range daemonExperiments {
		specs[i] = runspec.Spec{Experiment: id, Seed: hotSeed, Quick: true, Trials: trials}
	}
	return specs
}

// coldShards is the ?shards= value of the k-th cold request, 0 for a
// plain one.
func coldShards(k int) int {
	if k%shardEvery == shardEvery-1 {
		return 2
	}
	return 0
}

// coldRechecked reports whether the k-th cold result is kept for the
// in-process recheck. The sample takes plain and sharded requests
// alike, so shard/merge byte identity is checked at every seed.
func coldRechecked(k int) bool {
	return k%coldCheckEvery == 0 || k%coldCheckEvery == shardEvery-1
}

// coldSpec is client's k-th cold request: a daemon experiment at a seed
// derived from the workload seed, fresh for every (client, k).
func coldSpec(wseed uint64, trials, client, k int) runspec.Spec {
	x := wseed*0x9E3779B97F4A7C15 + uint64(client)<<40 + uint64(k) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == hotSeed {
		x++
	}
	id := daemonExperiments[(k+4*client)%len(daemonExperiments)]
	return runspec.Spec{Experiment: id, Seed: x, Quick: true, Trials: trials}
}

// jobStatus is the part of the service's status document the clients read.
type jobStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// client is one closed-loop HTTP client.
type client struct {
	base string
	hc   *http.Client
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     daemonClients,
			MaxIdleConnsPerHost: daemonClients,
		},
	}
}

// do sends one request and returns the body of a 2xx response.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (c *client) submit(s runspec.Spec, shards int) (jobStatus, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return jobStatus{}, err
	}
	path := "/v1/runs"
	if shards > 1 {
		path += "?shards=" + strconv.Itoa(shards)
	}
	data, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return jobStatus{}, err
	}
	var st jobStatus
	err = json.Unmarshal(data, &st)
	return st, err
}

// cold submits a spec that must miss the cache and polls its status
// until done, returning the result bytes. The submit response never
// carries the result, even for a job that finished before it was sent,
// so the status is always fetched at least once.
func (c *client) cold(s runspec.Spec, shards int) ([]byte, error) {
	st, err := c.submit(s, shards)
	if err != nil {
		return nil, err
	}
	if st.Cached {
		return nil, errors.New("cold request hit the cache")
	}
	for polls := 0; ; polls++ {
		if polls > 0 {
			time.Sleep(pollInterval)
		}
		data, err := c.do(http.MethodGet, "/v1/runs/"+st.ID, nil)
		if err != nil {
			return nil, err
		}
		st = jobStatus{}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case "queued", "running":
		case "done":
			// The envelope splices the result document verbatim,
			// without its trailing newline. Every cold result is at
			// least checked to be the requested experiment's document;
			// sampled ones are compared byte for byte later.
			if !bytes.HasPrefix(st.Result, []byte("{\n  \"id\": \""+s.Experiment+"\"")) {
				return nil, fmt.Errorf("job %s is done but its result is not a %s document", st.ID, s.Experiment)
			}
			return append([]byte(st.Result), '\n'), nil
		default:
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
}

// hot submits a spec that must hit the cache and fetches its result,
// returning the bytes and the time of each of the two requests.
func (c *client) hot(s runspec.Spec) (body []byte, post, get time.Duration, err error) {
	t0 := time.Now()
	st, err := c.submit(s, 0)
	post = time.Since(t0)
	if err != nil {
		return nil, post, 0, err
	}
	if st.State != "done" || !st.Cached {
		return nil, post, 0, fmt.Errorf("hot request answered state %s cached %v, want a cached done job", st.State, st.Cached)
	}
	t1 := time.Now()
	body, err = c.do(http.MethodGet, "/v1/runs/"+st.ID+"/result", nil)
	return body, post, time.Since(t1), err
}

// warmHotSet runs every hot spec once so later requests hit the cache,
// and checks the daemon's bytes against an in-process run.
func warmHotSet(c *client, o options, ck *checker) {
	for _, s := range hotSpecs(o.trials) {
		body, err := c.cold(s, 0)
		if err == nil {
			err = ck.verify(specKey(s), body, true)
		}
		ck.attempt("warm "+specKey(s), err)
	}
}

// reqSample is one timed request.
type reqSample struct {
	cold      bool
	lat       time.Duration
	post, get time.Duration // hot requests only
	spec      runspec.Spec
	shards    int    // cold requests only: the ?shards= value, 0 for none
	body      []byte // kept for sampled cold results only
}

// daemonPass is one pass of the client mix.
type daemonPass struct {
	wall     time.Duration
	samples  []reqSample
	cpuTicks int64   // daemon CPU while the pass ran, in clock ticks
	steal    float64 // host steal share while the pass ran
}

// runDaemonPass runs pass number pass. The clients move in step: both
// send a cold request, then both send their hot requests, so a hot
// request never waits behind the other client's engine run and hot
// latency measures the cache path itself.
func runDaemonPass(c *client, o options, ck *checker, pass int) daemonPass {
	hot := hotSpecs(o.trials)
	per := make([][]reqSample, daemonClients)
	t0 := time.Now()
	for i := 0; i < coldPerPass; i++ {
		k := pass*coldPerPass + i
		inStep(func(cl int) {
			s := coldSpec(o.seed, o.trials, cl, k)
			shards := coldShards(k)
			r0 := time.Now()
			body, err := c.cold(s, shards)
			smp := reqSample{cold: true, lat: time.Since(r0), spec: s, shards: shards}
			if err == nil {
				err = ck.verify(specKey(s), body, false)
			}
			if ck.attempt("cold "+specKey(s), err) && coldRechecked(k) {
				smp.body = body
			}
			per[cl] = append(per[cl], smp)
		})
		inStep(func(cl int) {
			for h := 0; h < hotPerCold; h++ {
				hs := hot[(k*hotPerCold+h+cl)%len(hot)]
				r1 := time.Now()
				body, post, get, err := c.hot(hs)
				lat := time.Since(r1)
				if err == nil {
					err = ck.verify(specKey(hs), body, true)
				}
				ck.attempt("hot "+specKey(hs), err)
				per[cl] = append(per[cl], reqSample{lat: lat, post: post, get: get, spec: hs})
			}
		})
	}
	p := daemonPass{wall: time.Since(t0)}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// inStep runs fn once per client, concurrently, and waits for all.
func inStep(fn func(client int)) {
	var wg sync.WaitGroup
	for cl := 0; cl < daemonClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
}

// recheckCold recomputes the kept cold results in-process, through the
// CLI's pipeline, and compares the bytes. It returns how many it
// rechecked and how many of those were sharded; a run that rechecked no
// sharded result fails.
func recheckCold(passes []daemonPass, ck *checker) (n, sharded int) {
	for _, p := range passes {
		for _, s := range p.samples {
			if !s.cold || s.body == nil {
				continue
			}
			n++
			if s.shards > 0 {
				sharded++
			}
			want, err := renderSpec(context.Background(), engine.Limits{}, s.spec)
			if err == nil && !bytes.Equal(want, s.body) {
				err = errors.New("daemon result differs from the in-process run")
			}
			if err != nil {
				ck.fail("recheck cold "+specKey(s.spec), err)
			}
		}
	}
	var err error
	if sharded == 0 {
		err = errors.New("no sharded cold result was rechecked")
	}
	ck.attempt("recheck of sharded cold results", err)
	return n, sharded
}

// daemonProc is a running ivnsimd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon launches the ivnsimd binary with a 2-worker config, a job
// journal under dir and an ephemeral loopback port, and waits for its
// ready line and /healthz.
func startDaemon(bin, dir string) (*daemonProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := map[string]any{
		"addr": "127.0.0.1:0", "workers": 2, "cache_entries": 64,
		"journal": filepath.Join(dir, "jobs.jsonl"),
	}
	cfgPath := filepath.Join(dir, "ivnsimd.json")
	if err := writeJSON(cfgPath, cfg); err != nil {
		return nil, err
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin, "-config", cfgPath)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemonProc{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for d.base == "" {
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("ivnsimd printed no listening line")
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("ivnsimd exited early: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if addr := listenAddr(filepath.Join(dir, "stdout")); addr != "" {
			d.base = "http://" + addr
		}
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ivnsimd /healthz not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listenAddr reads the daemon's "ivnsimd: listening on ADDR" line.
func listenAddr(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "ivnsimd: listening on "); ok {
			return strings.TrimSpace(addr)
		}
	}
	return ""
}

// stop drains the daemon with SIGTERM and waits for it; after a grace
// period it is killed.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(40 * time.Second):
		d.kill()
		return errors.New("ivnsimd did not drain in time")
	}
}

func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// cpuTicks reads a process's user+system CPU in clock ticks.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	return u + s, nil
}

// clockTick is USER_HZ, 100 on every Linux the benchmark targets.
const clockTick = 10 * time.Millisecond

func runDaemon(o options, ms *metricSet, ck *checker, log io.Writer) error {
	if o.trace {
		return runDaemonTraced(o, ms, ck, log)
	}
	bin, err := filepath.Abs(o.daemonBin)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	var setups []setupSample
	var d *daemonProc
	var c *client
	for i := 0; i < daemonSetups; i++ {
		sm := startStealMeter()
		t0 := time.Now()
		d, err = startDaemon(bin, filepath.Join(o.workDir, fmt.Sprintf("daemon-%d", i)))
		if err != nil {
			return err
		}
		c = &client{base: d.base, hc: newHTTPClient()}
		warmHotSet(c, o, ck)
		setups = append(setups, setupSample{time.Since(t0).Seconds(), sm.share()})
		if i < daemonSetups-1 {
			ck.attempt("daemon drain", d.stop())
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	pid := d.cmd.Process.Pid
	var passes []daemonPass
	quiet := 0
	for start := time.Now(); keepMeasuring(start, o.seconds, len(passes), quiet); {
		sm := startStealMeter()
		t0, err := cpuTicks(pid)
		if err != nil {
			return err
		}
		p := runDaemonPass(c, o, ck, len(passes))
		t1, err := cpuTicks(pid)
		if err != nil {
			return err
		}
		p.cpuTicks, p.steal = t1-t0, sm.share()
		if p.steal <= quietSteal {
			quiet++
		}
		passes = append(passes, p)
	}
	rss := peakRSSMB(pid)
	ck.attempt("daemon drain", d.stop())
	d = nil
	checked, sharded := recheckCold(passes, ck)

	keep := quietOnes(len(passes), minQuietPasses, func(i int) float64 { return passes[i].steal })
	var walls, rates, cold, hot []float64
	var ticks int64
	for _, i := range keep {
		p := passes[i]
		ticks += p.cpuTicks
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(len(p.samples))/p.wall.Seconds())
		for _, s := range p.samples {
			if s.cold {
				cold = append(cold, ms2(s.lat))
			} else {
				hot = append(hot, ms2(s.lat))
			}
		}
	}
	ms.set("setup_s", setupSeconds(setups))
	ms.set("wall_s", Median(walls))
	// Clock ticks are 10 ms, too coarse for one pass: cpu_s is the kept
	// passes' total over their count.
	ms.set("cpu_s", (time.Duration(ticks)*clockTick).Seconds()/float64(len(keep)))
	ms.set("max_rss_mb", rss)
	ms.set("jobs_per_s", Median(rates))
	ms.set("cold_p50_ms", Quantile(cold, 0.5))
	ms.set("hot_p50_ms", Quantile(hot, 0.5))
	fmt.Fprintf(log, "passes %d, %d used (host steal at most 3%%, else the least disturbed); set-ups %d; cold results rechecked in-process %d (%d sharded)\n", len(passes), len(keep), len(setups), checked, sharded)
	fmt.Fprintf(log, "cold requests: %s\n", Summarize(cold).String("ms"))
	fmt.Fprintf(log, "hot requests:  %s\n", Summarize(hot).String("ms"))
	return nil
}

// inProcessServer is the service and its HTTP handler inside this
// process, so the CPU profiler sees the daemon's code.
type inProcessServer struct {
	mgr  *service.Manager
	srv  *http.Server
	base string
	errc chan error
}

func startInProcess(dir string) (*inProcessServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mgr, err := service.New(service.Config{Workers: 2, CacheEntries: 64, JournalPath: filepath.Join(dir, "jobs.jsonl")})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Close(context.Background())
		return nil, err
	}
	s := &inProcessServer{mgr: mgr, srv: &http.Server{Handler: service.NewHandler(mgr)}, base: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *inProcessServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.mgr.Close(ctx); err == nil {
		err = cerr
	}
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serviceCounters reads the counters of a /metrics page.
func serviceCounters(c *client) (map[string]float64, error) {
	data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// runDaemonTraced is the traced daemon run: the client mix against an
// in-process server, then the runspec and physics probes.
func runDaemonTraced(o options, ms *metricSet, ck *checker, log io.Writer) error {
	passes, err := profileInProcess(o, ms, ck, log)
	if err != nil {
		return err
	}
	recheckCold(passes, ck)
	probeCycle(o, ms, ck)
	if err := probeRunspec(o, ms, ck); err != nil {
		return err
	}
	return probePhysics(o, ms, ck)
}

// profileInProcess runs the client mix against an in-process
// service.New + NewHandler server, plain passes alternating with
// profiled ones, then the service probes, and returns the passes.
func profileInProcess(o options, ms *metricSet, ck *checker, log io.Writer) ([]daemonPass, error) {
	s, err := startInProcess(filepath.Join(o.workDir, "inproc"))
	if err != nil {
		return nil, err
	}
	defer func() { ck.attempt("in-process server shutdown", s.close()) }()
	c := &client{base: s.base, hc: newHTTPClient()}
	warmHotSet(c, o, ck)

	before, err := serviceCounters(c)
	if err != nil {
		return nil, err
	}
	var plain, traced []daemonPass
	var eff, alloc []float64
	prof := &layerProfile{dir: o.workDir}
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < o.seconds {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := processCPU()
		p := runDaemonPass(c, o, ck, len(plain)+len(traced))
		eff = append(eff, (processCPU()-cpu0).Seconds()/(p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		runtime.ReadMemStats(&m1)
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		plain = append(plain, p)
		if len(plain) == 1 {
			after, err := serviceCounters(c)
			if err != nil {
				return nil, err
			}
			delta := func(n string) float64 { return after[n] - before[n] }
			ms.set("engine.trials", delta("trials_total"))
			hits, misses := delta("cache_hits"), delta("cache_misses")
			if hits+misses > 0 {
				ms.set("service.cache_hit_rate", hits/(hits+misses))
			}
			ms.set("service.jobs_failed", delta("jobs_failed"))
			ms.set("service.shard_subjobs", delta("shard_subjobs"))
			ms.set("service.journal_recorded", delta("journal_recorded"))
			ms.set("service.journal_replayed", delta("journal_replayed"))
		}
		if err := prof.start(); err != nil {
			return nil, err
		}
		p = runDaemonPass(c, o, ck, len(plain)+len(traced))
		if err := prof.stop(); err != nil {
			return nil, err
		}
		traced = append(traced, p)
	}

	var plainWall, tracedWall, post, get []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
		for _, smp := range p.samples {
			if !smp.cold {
				post = append(post, float64(smp.post)/float64(time.Microsecond))
				get = append(get, float64(smp.get)/float64(time.Microsecond))
			}
		}
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	ms.set("engine.parallel_eff", Median(eff))
	ms.set("alloc_mb", Median(alloc))
	ms.set("http.post_us.hot", Median(post))
	ms.set("http.result_us.hot", Median(get))
	ms.set("trace_overhead", Median(tracedWall)/Median(plainWall))
	if err := prof.export(ms); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "passes %d plain, %d profiled; profiled CPU %.2f s; largest in other:%s\n", len(plain), len(traced), float64(prof.total)/1e9, prof.otherSummary(5))

	probeService(o, s.mgr, ms, ck)
	return append(plain, traced...), nil
}

// probeService times Manager.Submit on a cached spec, and the service's
// own share of a cold job: Submit to Done minus runspec.Run of the same
// spec.
func probeService(o options, mgr *service.Manager, ms *metricSet, ck *checker) {
	hs := hotSpecs(o.trials)[0]
	us, err := timeCalls(func() error {
		job, err := mgr.Submit(hs)
		if err == nil && !job.Status().Cached {
			err = errors.New("hot submit missed the cache")
		}
		return err
	})
	if !ck.attempt("service.Submit hot", err) {
		return
	}
	ms.set("service.submit_hot_us", us)

	var over []float64
	for rep := 0; rep < 5; rep++ {
		s := coldSpec(o.seed, o.trials, daemonClients, 1_000_000+rep)
		t0 := time.Now()
		job, err := mgr.Submit(s)
		if err == nil {
			<-job.Done()
			if _, ok := job.Result(); !ok {
				err = fmt.Errorf("job ended %s", job.Status().State)
			}
		}
		viaService := time.Since(t0)
		if !ck.attempt("service job "+specKey(s), err) {
			return
		}
		t1 := time.Now()
		_, _, err = runspec.Run(context.Background(), engine.Limits{}, s, nil)
		direct := time.Since(t1)
		if !ck.attempt("direct run "+specKey(s), err) {
			return
		}
		over = append(over, ms2(viaService-direct))
	}
	ms.set("service.job_overhead_ms", Median(over))
}

// probeCycle runs the daemon's eight cold experiments once in-process,
// at fresh seeds, for the runspec and render costs behind a cold job.
func probeCycle(o options, ms *metricSet, ck *checker) {
	var run, render time.Duration
	size := 0
	var buf bytes.Buffer
	for i := range daemonExperiments {
		s := coldSpec(o.seed, o.trials, daemonClients+1, i)
		t0 := time.Now()
		res, _, err := runspec.Run(context.Background(), engine.Limits{}, s, nil)
		t1 := time.Now()
		buf.Reset()
		if err == nil {
			err = engine.RenderJSON(res, &buf)
		}
		run += t1.Sub(t0)
		render += time.Since(t1)
		size += buf.Len()
		if !ck.attempt("cycle "+specKey(s), err) {
			return
		}
	}
	ms.set("runspec.run_s", run.Seconds())
	ms.set("render.json_ms", ms2(render))
	ms.set("render.bytes", float64(size))
}

func mkdirFor(path string) error { return os.MkdirAll(filepath.Dir(path), 0o755) }
