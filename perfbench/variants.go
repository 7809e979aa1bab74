package main

import (
	"fmt"
	"strings"
)

// seedVariants is how many input variants one run of an in-process
// workload measures. A workload seed expands into this many variant
// seeds; each run repeats units of every variant in turn and averages
// over them, so a run's figures describe several draws of the workload
// rather than one placement of sessions, which alone can decide a fifth
// of a simulated statistic. The fabric workloads' jitter, a fraction of
// a cycle, needs five draws to hold its spread over seeds under 0.08;
// paper-fig5 averages 40 cells per draw, and three draws keep its
// five-second figures at two per variant in a run.
var seedVariants = map[string]int{"paper-fig5": 3, "fabric-dense": 5, "fabric-churn": 5}

// variantSeed is the seed of variant v; variant 0 is the workload seed
// itself, so `paper-fig5` at seed 1 starts with mmrbench's own figure.
func variantSeed(seed uint64, v int) uint64 { return seed + uint64(v)*1_000_003 }

// variantRuns collects the units of a run by variant: their host times
// and their outcome digests, which must repeat within a variant.
type variantRuns struct {
	workload string
	ms       [][]float64
	digests  []string
}

func newVariantRuns(workload string) *variantRuns {
	n := seedVariants[workload]
	return &variantRuns{workload: workload, ms: make([][]float64, n), digests: make([]string, n)}
}

// add records one unit of variant v.
func (r *variantRuns) add(v int, ms float64, digest string) error {
	if r.ms[v] != nil && digest != r.digests[v] {
		return incorrect("%s variant %d repeated to digest %s, its first unit reached %s", r.workload, v, digest, r.digests[v])
	}
	r.ms[v] = append(r.ms[v], ms)
	r.digests[v] = digest
	return nil
}

// units returns how many units ran.
func (r *variantRuns) units() int {
	n := 0
	for _, ms := range r.ms {
		n += len(ms)
	}
	return n
}

// rate returns the mean over variants of work[v] per host second of
// variant v's median unit.
func (r *variantRuns) rate(work []float64) float64 {
	var t float64
	for v := range r.ms {
		t += work[v] / (median(r.ms[v]).Value / 1e3)
	}
	return t / float64(len(r.ms))
}

func (r *variantRuns) all() []float64 {
	var out []float64
	for _, ms := range r.ms {
		out = append(out, ms...)
	}
	return out
}

func (r *variantRuns) digestList() string { return strings.Join(r.digests, ",") }

// check enforces the recorded default-seed digests.
func (r *variantRuns) check(rec *recorded, seed uint64) error {
	return checkDigests(rec, r.workload, seed, r.digests)
}

func (r *variantRuns) String() string {
	return fmt.Sprintf("%d units over %d variants", r.units(), len(r.ms))
}

// needMore reports whether the run must go on: until every variant has
// run once, and then while another unit fits the measured phase.
func needMore(r *variantRuns, keep bool) bool {
	for _, ms := range r.ms {
		if len(ms) == 0 {
			return true
		}
	}
	return keep
}

// meanOfMedians is the mean over variants of each variant's median: a
// set-up time that neither a hiccup in one set-up nor the draw of one
// variant can move.
func meanOfMedians(xs [][]float64) float64 {
	var t float64
	for _, x := range xs {
		t += median(x).Value
	}
	return t / float64(len(xs))
}
