package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo is the provenance of a run, taken from the processes that
// ran the load: the benchmark itself and, on the daemon workload, the
// daemon child.
type hostInfo struct {
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	DaemonGOMAXPROC int    `json:"daemon_gomaxprocs,omitempty"`
	CPUModel        string `json:"cpu_model"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	// StealFrac is the share of the host's CPU time the hypervisor took
	// away during the run. It is not part of the shape: it says how far
	// the run's host times are from the same host's unloaded ones.
	StealFrac float64 `json:"steal_frac"`
}

func (h hostInfo) String() string {
	d := ""
	if h.DaemonGOMAXPROC > 0 {
		d = fmt.Sprintf(" daemon_gomaxprocs=%d", h.DaemonGOMAXPROC)
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d%s cpu=%q go=%s commit=%s steal=%.1f%%",
		h.NumCPU, h.GOMAXPROCS, d, h.CPUModel, h.GoVersion, h.Commit, 100*h.StealFrac)
}

// shape is the part of the provenance two runs must share to be
// compared: the same CPUs, the same parallelism and the same toolchain.
func (h hostInfo) shape() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d daemon_gomaxprocs=%d cpu=%q go=%s",
		h.NumCPU, h.GOMAXPROCS, h.DaemonGOMAXPROC, h.CPUModel, h.GoVersion)
}

// cpuTicks returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it cannot be read).
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

func probeHost(daemonGMP int, stealFrac float64) hostInfo {
	return hostInfo{
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		DaemonGOMAXPROC: daemonGMP,
		CPUModel:        cpuModel(),
		GoVersion:       runtime.Version(),
		Commit:          sourceRevision(),
		StealFrac:       stealFrac,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceRevision names the code under test: the git commit when the
// benchmark runs in a git checkout, otherwise a digest of the Go sources
// and module files of the tree, which identifies an exported checkout
// just as well.
func sourceRevision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// procGOMAXPROCS returns the GOMAXPROCS a Go child process runs at: its
// GOMAXPROCS environment variable when set, otherwise the number of CPUs
// in its affinity mask, which is what the Go runtime defaults to.
func procGOMAXPROCS(pid int) int {
	if env, err := os.ReadFile(fmt.Sprintf("/proc/%d/environ", pid)); err == nil {
		for _, kv := range strings.Split(string(env), "\x00") {
			if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok {
				if n, err := strconv.Atoi(v); err == nil && n > 0 {
					return n
				}
			}
		}
	}
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(st), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return countCPUList(strings.TrimSpace(v))
		}
	}
	return 0
}

// countCPUList counts the CPUs of a kernel CPU list such as "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0
			}
		}
		n += b - a + 1
	}
	return n
}

// vmHWM returns the peak resident set size of a process, in bytes.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// runRecord is what each run leaves in the output directory, so two runs
// can be compared later with -compare.
type runRecord struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     bool                 `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Wall      float64              `json:"wall_s"`
	Host      hostInfo             `json:"host"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func readRecord(path string) (*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareRecords prints head/base for every metric two runs share. It
// refuses runs of different workloads, modes or host shapes: numbers
// from a different machine or parallelism say nothing about a change.
func compareRecords(w io.Writer, basePath, headPath string) error {
	base, err := readRecord(basePath)
	if err != nil {
		return err
	}
	head, err := readRecord(headPath)
	if err != nil {
		return err
	}
	if base.Workload != head.Workload || base.Trace != head.Trace {
		return fmt.Errorf("runs differ in workload or mode: %s/trace=%v vs %s/trace=%v", base.Workload, base.Trace, head.Workload, head.Trace)
	}
	if base.Host.shape() != head.Host.shape() {
		return fmt.Errorf("refusing to compare runs from different host shapes:\n  base: %s\n  head: %s", base.Host.shape(), head.Host.shape())
	}
	names := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		if _, ok := head.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (seed %d vs %d), %s\n", base.Workload, base.Seed, head.Seed, base.Host.shape())
	for _, k := range names {
		b, h := base.Metrics[k].Value, head.Metrics[k].Value
		ratio := "-"
		if b != 0 {
			ratio = fmt.Sprintf("%.4f", h/b)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g  head/base %s %s\n", k, b, h, ratio, base.Metrics[k].Unit)
	}
	return nil
}
