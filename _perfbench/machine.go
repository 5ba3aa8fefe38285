package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// machine describes where a benchmark output was taken. Two outputs
// compare only when every field but Commit and Tree agrees.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	MemTotalMB int    `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD of the tree, "none" outside a git checkout.
	Commit string `json:"commit"`
	// Tree is a sha256 over the module's Go sources and go.mod files, so
	// a checkout without git history is still identified.
	Tree string `json:"tree"`
}

// sameHost reports whether two descriptors name the same machine and
// toolchain, ignoring which code ran.
func (m machine) sameHost(o machine) bool {
	m.Commit, m.Tree, o.Commit, o.Tree = "", "", "", ""
	return m == o
}

func describeMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		MemTotalMB: memTotalMB(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Tree:       treeHash("."),
	}
}

// procField returns the value of the first "key : value" line of a
// /proc file, "unknown" when absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func memTotalMB() int {
	kb, _ := strconv.Atoi(strings.TrimSuffix(procField("/proc/meminfo", "MemTotal"), " kB"))
	return kb / 1024
}

func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeHash hashes every .go file and go.mod under root, skipping the
// build output and VCS directories, in path order.
func treeHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == ".git" || n == ".bench_build" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostCPUTicks reads the steal and total columns of /proc/stat's cpu
// line: the share of CPU time the hypervisor gave to other guests
// explains timing noise no benchmark setting can remove.
func hostCPUTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// quietSteal is the host steal share above which a pass or set-up
// counts as disturbed by other guests; minQuietPasses is the number of
// quiet passes needed before disturbed ones are set aside.
const (
	quietSteal     = 0.03
	minQuietPasses = 3
)

// keepMeasuring reports whether a run takes another pass: always until
// its time is up, and past it, for at most half its time again, while
// fewer than minQuietPasses of its passes were quiet. The cap keeps a
// run on a busy host within one and a half times its length.
func keepMeasuring(start time.Time, seconds float64, passes, quiet int) bool {
	el := time.Since(start).Seconds()
	return passes == 0 || el < seconds || (quiet < minQuietPasses && el < 1.5*seconds)
}

// stealMeter measures the host steal share over an interval.
type stealMeter struct{ steal, total int64 }

func startStealMeter() stealMeter {
	s, t := hostCPUTicks()
	return stealMeter{s, t}
}

// share is the steal share of host CPU time since the meter started.
func (m stealMeter) share() float64 {
	s, t := hostCPUTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// quietOnes returns the indices, in order, of the n samples whose steal
// share is at most quietSteal when at least want of them are; otherwise
// the want least disturbed ones (all, when n ≤ want). A host that stays
// busy for a whole run is then reported at its least disturbed.
func quietOnes(n, want int, steal func(i int) float64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal(idx[a]) < steal(idx[b]) })
	k := 0
	for k < n && steal(idx[k]) <= quietSteal {
		k++
	}
	k = max(k, min(want, n))
	keep := idx[:k]
	sort.Ints(keep)
	return keep
}

// setupSample is one set-up's duration and the host steal share during it.
type setupSample struct{ secs, steal float64 }

// setupSeconds is the median duration of the quiet set-ups, or the
// least disturbed one when none was quiet.
func setupSeconds(ss []setupSample) float64 {
	var secs []float64
	for _, i := range quietOnes(len(ss), 1, func(i int) float64 { return ss[i].steal }) {
		secs = append(secs, ss[i].secs)
	}
	return Median(secs)
}
