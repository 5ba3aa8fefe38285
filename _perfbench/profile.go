package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// layerProfile collects CPU profiles of the traced passes into files
// under dir and charges their samples to layers. Each sample counts for
// the package of its leaf function (the innermost inlined one), as the
// flat column of `go tool pprof -top` gives it.
type layerProfile struct {
	dir     string
	files   []string
	f       *os.File
	byLayer map[string]int64
	other   map[string]int64 // packages charged to "other"
	total   int64            // profiled CPU nanoseconds
}

func (p *layerProfile) start() error {
	f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pprof", len(p.files))))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.files = append(p.files, f.Name())
	return nil
}

func (p *layerProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// tally merges the collected profiles with `go tool pprof -top` and sums
// each function's flat CPU time into its layer.
func (p *layerProfile) tally() error {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ns", "-symbolize=none"}, p.files...)
	cmd := exec.Command("go", args...)
	// Keep pprof's binary search path and download directory inside dir.
	cmd.Env = append(os.Environ(), "PPROF_BINARY_PATH="+p.dir, "PPROF_TMPDIR="+p.dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, err := parseTop(out)
	if err != nil {
		return err
	}
	p.byLayer, p.other, p.total = map[string]int64{}, map[string]int64{}, 0
	for fn, v := range flat {
		l := layerOf(fn)
		p.byLayer[l] += v
		p.total += v
		if l == "other" {
			p.other[packageOf(fn)] += v
		}
	}
	return nil
}

// parseTop reads the rows of `go tool pprof -top -unit=ns` output into
// flat nanoseconds per function.
func parseTop(out []byte) (map[string]int64, error) {
	flat := map[string]int64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[name] += int64(v)
	}
	if !rows {
		return nil, fmt.Errorf("no table in pprof output:\n%s", out)
	}
	return flat, nil
}

// export tallies the profiles and sets cpu_share.<layer> for every
// layer; the shares sum to 1.
func (p *layerProfile) export(ms *metricSet) error {
	if err := p.tally(); err != nil {
		return err
	}
	for _, l := range cpuLayers {
		share := 0.0
		if p.total > 0 {
			share = float64(p.byLayer[l]) / float64(p.total)
		}
		ms.set("cpu_share."+l, share)
	}
	return nil
}

// otherSummary names the largest packages inside cpu_share.other.
func (p *layerProfile) otherSummary(n int) string {
	pkgs := make([]string, 0, len(p.other))
	for k := range p.other {
		pkgs = append(pkgs, k)
	}
	sort.Slice(pkgs, func(i, j int) bool { return p.other[pkgs[i]] > p.other[pkgs[j]] })
	var sb strings.Builder
	for i, k := range pkgs {
		if i == n || p.total == 0 {
			break
		}
		fmt.Fprintf(&sb, " %s %.3f", k, float64(p.other[k])/float64(p.total))
	}
	return sb.String()
}

// repoLayers are the module packages reported as their own layer; any
// other module package counts as "other".
var repoLayers = map[string]string{
	"dsp": "dsp", "phasor": "phasor", "core": "core", "em": "em", "radio": "radio", "tag": "tag",
	"reader": "reader", "link": "link", "gen2": "gen2", "session": "session", "engine": "engine",
	"ivnsim": "ivnsim", "ivnsim/runspec": "runspec", "service": "service", "pool": "pool", "rng": "rng",
}

// layerOf maps a profiled function name to its cpu_share layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "ivn/internal/"):
		if l, ok := repoLayers[strings.TrimPrefix(pkg, "ivn/internal/")]; ok {
			return l
		}
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"),
		!strings.ContainsAny(fn, "./"): // the runtime's assembly, such as aeshashbody
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a Go symbol name such as
// "ivn/internal/session.(*medium).broadcastClean".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}
