// Command perfbench is the repository's benchmark: one command runs a
// named workload at a given workload seed, checks that the simulated
// outputs are correct, and prints every metric listed in BENCHMARK.json
// by name and unit. See README.md in this directory.
//
//	bash perfbench/run.sh --workload fabric-dense --seed 3 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it runs the workload again with spans recorded around
// every call into a layer and prints the per-layer metrics plus a
// self-time attribution table. The last line of standard output is
// always one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	mmrnet  string // path of the mmrnet binary the daemon workload launches
	workDir string // scratch directory inside the checkout (temp files, traces)
}

// outcome is what a workload reports back: the metrics of its mode
// (end-to-end untraced, per-layer traced), the operation counts, the
// sample counts behind its percentiles, and the spans of a traced run.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string // one line each: sample counts and percentile ranks
	tracer    *tracer  // non-nil on traced runs
	daemonGMP int      // GOMAXPROCS of the daemon child, 0 when none ran
}

// errIncorrect marks a correctness violation: the run fails, it never
// shows up as just a worse metric.
type errIncorrect struct{ msg string }

func (e *errIncorrect) Error() string { return "incorrect: " + e.msg }

func incorrect(format string, args ...any) error {
	return &errIncorrect{fmt.Sprintf(format, args...)}
}

type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{"paper-fig5", runFig5},
	{"fabric-dense", runDense},
	{"fabric-churn", runChurn},
	{"daemon-open-loop", runDaemonLoop},
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-fig5, fabric-dense, fabric-churn, daemon-open-loop")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 25, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = untraced end-to-end run")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	mmrnet := flag.String("mmrnet", "", "mmrnet binary for the daemon workload")
	out := flag.String("out", ".bench_build/perfbench", "directory for run records, traces and temp files")
	record := flag.Bool("record-digests", false, "print the default-seed outcome digest of every in-process workload and exit")
	compare := flag.Bool("compare", false, "compare two run records (args: base.json head.json); refuses differing host shapes")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two run records"))
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *record {
		if err := recordDigests(); err != nil {
			fatal(err)
		}
		return
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, mmrnet: *mmrnet, workDir: *out}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	defs, err := loadSpec(*spec)
	if err != nil {
		fatal(err)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if w.name == "daemon-open-loop" && *mmrnet == "" {
		fatal(fmt.Errorf("the daemon workload needs -mmrnet"))
	}

	start := time.Now()
	steal0, total0 := cpuTicks()
	oc, err := w.run(rc)
	steal1, total1 := cpuTicks()
	var bad *errIncorrect
	switch {
	case errors.As(err, &bad):
		fmt.Println("perfbench:", err)
		printResult(false, 1, 1, nil)
		os.Exit(1)
	case err != nil:
		fatal(err)
	}
	want := defs.endToEnd
	if rc.trace {
		// A layer this workload never enters reads 0 on every per-layer
		// metric of it.
		want = defs.perLayer
		for _, d := range want {
			if _, ok := oc.metrics[d.Name]; !ok {
				oc.metrics[d.Name] = 0
			}
		}
	}
	metrics, err := shapeMetrics(want, oc.metrics, !rc.trace)
	if err != nil {
		fatal(err)
	}

	stealFrac := 0.0
	if total1 > total0 {
		stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	host := probeHost(oc.daemonGMP, stealFrac)
	fmt.Println("host:", host.String())
	for _, n := range oc.notes {
		fmt.Println("note:", n)
	}
	if oc.tracer != nil {
		tracePath := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, rc.seed))
		if err := oc.tracer.writeFile(tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d written to %s\n", len(oc.tracer.spans), tracePath)
		printAttribution(os.Stdout, w.name, oc.tracer.attribution())
	}
	printMetricTable(metrics)
	rec := runRecord{Workload: w.name, Seed: rc.seed, Trace: rc.trace, Seconds: rc.seconds,
		Wall: time.Since(start).Seconds(), Host: host, Metrics: metrics,
		Attempted: oc.attempted, Failed: oc.failed}
	recPath := filepath.Join(*out, fmt.Sprintf("run-%s-seed%d-trace%d.json", w.name, rc.seed, *trace))
	if err := writeJSONFile(recPath, rec); err != nil {
		fatal(err)
	}
	printResult(true, oc.attempted, oc.failed, metrics)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// shapeMetrics checks the workload produced exactly the metrics the
// definition lists, attaches their units, and — for end-to-end metrics,
// which a later change is gated on — refuses a value that is zero, NaN
// or infinite, because no ratio against a baseline could be taken.
func shapeMetrics(defs []metricDef, got map[string]float64, nonZero bool) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || (nonZero && v == 0) {
			return nil, fmt.Errorf("metric %s has unusable value %v", d.Name, v)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload did not measure %v", missing)
	}
	var extra []string
	for k := range got {
		if _, ok := out[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("workload measured metrics BENCHMARK.json does not list: %v", extra)
	}
	return out, nil
}

func printMetricTable(m map[string]metricOut) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-36s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printResult prints the result object as the last line of stdout.
func printResult(correct bool, attempted, failed int64, m map[string]metricOut) {
	if m == nil {
		m = map[string]metricOut{}
	}
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
