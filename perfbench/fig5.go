package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mmr/internal/exp"
	"mmr/internal/metrics"
	"mmr/internal/router"
	"mmr/internal/sim"
	"mmr/internal/traffic"
)

// paper-fig5: exp.Figure5 at the quick window, the paper's own
// experiment and the path `mmrbench -fig 5 -quick` takes. Untraced runs
// call exp.Figure5 itself; the traced run performs the same grid cell by
// cell through the exported router and traffic calls exp.RunPoint makes,
// so each layer gets its own spans, and must reach the same digest.

// fig5Cell is one (load, variant) cell of the grid, in exp.RunGrid order.
type fig5Cell struct {
	load float64
	v    exp.Variant
}

func fig5Grid() []fig5Cell {
	variants := []exp.Variant{
		exp.SchemeVariant("biased", 8),
		exp.SchemeVariant("fixed", 8),
		exp.SchemeVariant("autonet", 8),
		exp.SchemeVariant("perfect", 8),
	}
	var cells []fig5Cell
	for _, load := range exp.PaperLoads {
		for _, v := range variants {
			cells = append(cells, fig5Cell{load, v})
		}
	}
	return cells
}

func fig5Options(seed uint64) exp.Options {
	o := exp.QuickOptions()
	o.Seed = seed
	return o
}

// fig5Headline is Figure 5's headline point: 8 candidates, biased
// priorities, load 0.9.
func fig5Headline(c fig5Cell) bool { return c.v.Name == "8C biased" && c.load == 0.9 }

// gridDigest hashes every simulated value the figure series project.
func gridDigest(g *exp.Grid) string {
	d := newDigester()
	for _, p := range g.Points {
		d.str(p.Variant)
		d.f64(p.Load)
		d.f64(p.Offered)
		m := p.M
		d.u64(uint64(m.Cycles))
		d.u64(uint64(m.FlitsGenerated))
		d.u64(uint64(m.FlitsDelivered))
		d.f64(exp.MetricDelayMicros(m))
		d.f64(exp.MetricDelayCycles(m))
		d.f64(exp.MetricJitter(m))
		d.f64(exp.MetricTotalDelayCycles(m))
		d.f64(exp.MetricConnJitter(m))
		d.f64(exp.MetricUtilization(m))
	}
	return d.sum()
}

// buildCell is exp.RunPoint up to its Run call: a fresh router for the
// cell's variant, the cell's generated workload, and its admission. Each
// layer call gets a span on lane with the cell's id. metrics enables the
// router's registry first, so the link schedulers' counters can be read
// after Run.
func buildCell(tr *tracer, parent, lane int, id int64, c fig5Cell, opts exp.Options, metrics bool) (*router.Router, *traffic.Workload, int, error) {
	cfg := router.PaperConfig()
	c.v.Mutate(&cfg)
	cfg.Seed = opts.Seed
	cfg.NoIdleSkip = opts.NoIdleSkip
	s := tr.begin("router", "router.new", parent, lane, id)
	r, err := router.New(cfg)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	if metrics {
		r.EnableMetrics()
	}
	s = tr.begin("traffic", "traffic.generate", parent, lane, id)
	wl, err := traffic.Generate(fig5WorkloadConfig(cfg, c.load), fig5RNG(opts.Seed, c.load))
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = tr.begin("router", "router.establish_workload", parent, lane, id)
	n, err := r.EstablishWorkload(wl)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	return r, wl, n, nil
}

// fig5Setup builds every cell of the grid once and counts the sessions
// the grid requests and establishes. exp.Figure5 builds its cells itself
// inside every measured figure, so this is a separate timing of those
// same steps, which also warms the allocator before the first figure.
func fig5Setup(seed uint64, tr *tracer, parent int) (requested, established int, err error) {
	opts := fig5Options(seed)
	for _, c := range fig5Grid() {
		_, wl, n, err := buildCell(tr, parent, 0, 0, c, opts, false)
		if err != nil {
			return 0, 0, err
		}
		requested += len(wl.Conns)
		established += n
	}
	return requested, established, nil
}

// fig5WorkloadConfig and fig5RNG are exp.RunPoint's workload inputs.
func fig5WorkloadConfig(cfg router.Config, load float64) traffic.WorkloadConfig {
	return traffic.WorkloadConfig{Ports: cfg.Ports, Link: cfg.Link, Rates: traffic.PaperRates,
		TargetLoad: load, MaxPortLoad: 1}
}

func fig5RNG(seed uint64, load float64) *sim.RNG {
	return sim.NewRNG(seed*1_000_003 + uint64(load*1000))
}

func fig5Digest(seed uint64) (string, error) {
	res, err := exp.Figure5(fig5Options(seed))
	if err != nil {
		return "", err
	}
	return gridDigest(res.Grid), nil
}

func runFig5(rc runConfig) (*outcome, error) {
	rec, err := loadRecorded()
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return traceFig5(rc, rec)
	}
	cells := fig5Grid()
	var setups []float64
	nv := seedVariants["paper-fig5"]
	requested, established := make([]int, nv), make([]int, nv)
	for i := 0; i < quickSetupReps; i++ {
		runtime.GC()
		t := time.Now()
		for v := 0; v < nv; v++ {
			if requested[v], established[v], err = fig5Setup(variantSeed(rc.seed, v), nil, -1); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	runs := newVariantRuns("paper-fig5")
	grids := make([]*exp.Grid, nv)
	start := time.Now()
	for rep := 0; needMore(runs, keepGoing(start, rc.seconds, runs.all())); rep++ {
		v := rep % nv
		t := time.Now()
		res, err := exp.Figure5(fig5Options(variantSeed(rc.seed, v)))
		if err != nil {
			return nil, err
		}
		if err := runs.add(v, time.Since(t).Seconds()*1e3, gridDigest(res.Grid)); err != nil {
			return nil, err
		}
		grids[v] = res.Grid
	}
	if err := runs.check(rec, rc.seed); err != nil {
		return nil, err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	cycles := float64(fig5Options(rc.seed).Warmup + fig5Options(rc.seed).Measure)
	cellCycles, sessions := make([]float64, nv), make([]float64, nv)
	var delay, jitter []float64
	var req, est int
	for v, g := range grids {
		cellCycles[v] = float64(len(cells)) * cycles
		sessions[v] = float64(established[v])
		req += requested[v]
		est += established[v]
		for _, p := range g.Points {
			delay = append(delay, exp.MetricDelayCycles(p.M))
			jitter = append(jitter, exp.MetricJitter(p.M))
		}
	}
	lat := runs.all()
	p50, p99 := median(lat), tail(lat, 0.99)
	oc := &outcome{
		metrics: map[string]float64{
			"setup_s":              median(setups).Value,
			"router_cycles_per_s":  runs.rate(cellCycles),
			"session_events_per_s": runs.rate(sessions),
			"peak_rss_bytes":       rss,
			"req_p50_ms":           p50.Value,
			"sim_delay_cycles":     mean(delay),
			"sim_jitter_cycles":    mean(jitter),
			"sim_accept_ratio":     float64(est) / float64(req),
		},
		attempted: int64(runs.units()) * int64(len(cells)),
		notes: []string{
			fmt.Sprintf("paper-fig5: %s of %d cells, digests %s", runs, len(cells), runs.digestList()),
			fmt.Sprintf("req_p50_ms is the %s figures, req_p99_ms the %s", p50, p99),
		},
	}
	for _, p := range grids[0].Points {
		if fig5Headline(fig5Cell{p.Load, exp.Variant{Name: p.Variant}}) {
			oc.notes = append(oc.notes, fmt.Sprintf("headline 8C biased @0.9 (variant 0): delay %.4f cycles, jitter %.4f cycles",
				exp.MetricDelayCycles(p.M), exp.MetricJitter(p.M)))
		}
	}
	return oc, nil
}

// traceFig5 runs one untraced figure (the overhead reference), then the
// same grid with a span around every layer call, on as many lanes as
// exp.RunGrid uses workers.
func traceFig5(rc runConfig, rec *recorded) (*outcome, error) {
	opts := fig5Options(rc.seed)
	t := time.Now()
	res, err := exp.Figure5(opts)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t)
	want := gridDigest(res.Grid)

	tr := newTracer()
	cells := fig5Grid()
	lanes := runtime.NumCPU()
	if lanes > len(cells) {
		lanes = len(cells)
	}
	// Lane 0 also carries set-up and the figure projection; the other
	// lanes exist while the pool runs.
	roots := make([]int, lanes)
	roots[0] = tr.begin(otherLayer, "lane", -1, 0, 0)
	setup := tr.begin("exp", "exp.setup", roots[0], 0, 0)
	if _, _, err := fig5Setup(rc.seed, tr, setup); err != nil {
		return nil, err
	}
	tr.end(setup)

	points := make([]exp.Point, len(cells))
	errs := make([]error, len(cells))
	sched := make([]schedCounts, len(cells))
	poolStart := time.Now()
	for l := 1; l < lanes; l++ {
		roots[l] = tr.begin(otherLayer, "lane", -1, l, 0)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range idx {
				points[i], sched[i], errs[i] = traceCell(tr, roots[lane], lane, i, cells[i], opts)
			}
		}(l)
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	poolWall := time.Since(poolStart)
	for _, r := range roots[1:] {
		tr.end(r)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	grid := &exp.Grid{Points: points}
	s := tr.begin("exp", "exp.figure", roots[0], 0, 0)
	for _, p := range []func(*router.Metrics) float64{exp.MetricDelayMicros, exp.MetricJitter, exp.MetricTotalDelayCycles, exp.MetricConnJitter} {
		grid.Figure("", "", p)
	}
	tr.end(s)
	tr.end(roots[0])
	traced := time.Duration(tr.spans[roots[0]].dur()) - time.Duration(tr.spans[setup].dur())

	got := gridDigest(grid)
	if got != want {
		return nil, incorrect("paper-fig5 traced grid digest %s differs from exp.Figure5's %s", got, want)
	}
	if err := checkDigests(rec, "paper-fig5", rc.seed, []string{got}); err != nil {
		return nil, err
	}

	// Allocations per router cycle, from one serial rerun of the headline
	// cell with nothing else running.
	allocs, err := headlineAllocsPerCycle(cells, opts)
	if err != nil {
		return nil, err
	}

	a := tr.attribution()
	cellMs := scale(tr.durations("exp", "exp.cell"), 1e-6)
	runNs := sum(tr.durations("router", "router.run"))
	cycles := float64(len(cells)) * float64(opts.Warmup+opts.Measure)
	var total schedCounts
	var util float64
	for i, c := range cells {
		total.add(sched[i])
		if fig5Headline(c) {
			util = exp.MetricUtilization(points[i].M)
		}
	}
	m := map[string]float64{
		"exp.cell_ms.p50":              median(cellMs).Value,
		"exp.cell_ms.max":              tail(cellMs, 1).Value,
		"exp.pool_busy_frac":           sum(cellMs) * 1e6 / (float64(lanes) * float64(poolWall.Nanoseconds())),
		"traffic.generate_us":          mean(tr.durations("traffic", "traffic.generate")) / 1e3,
		"router.establish_workload_us": mean(tr.durations("router", "router.establish_workload")) / 1e3,
		"router.run_ns_per_cycle":      runNs / cycles,
		"router.allocs_per_cycle":      allocs,
		"router.switch_utilization":    util,
		"trace.overhead_frac":          traced.Seconds()/untraced.Seconds() - 1,
		"req_p99_ms":                   float64(untraced.Nanoseconds()) / 1e6, // the max of one figure
	}
	total.into(m)
	layerFracs(a, m)
	return &outcome{metrics: m, attempted: int64(len(cells)), tracer: tr,
		notes: []string{fmt.Sprintf("paper-fig5 traced: %d cells on %d lanes, digest %s", len(cells), lanes, got)}}, nil
}

// traceCell is exp.RunPoint with a span around each layer call; router
// metrics are enabled to read the link schedulers' counters.
func traceCell(tr *tracer, root, lane, id int, c fig5Cell, opts exp.Options) (exp.Point, schedCounts, error) {
	cell := tr.begin("exp", "exp.cell", root, lane, int64(id))
	defer tr.end(cell)
	r, wl, _, err := buildCell(tr, cell, lane, int64(id), c, opts, true)
	if err != nil {
		return exp.Point{}, schedCounts{}, err
	}
	s := tr.begin("router", "router.run", cell, lane, int64(id))
	m := r.Run(opts.Warmup, opts.Measure)
	tr.end(s)
	s = tr.begin("metrics", "metrics.gather", cell, lane, int64(id))
	snap := r.GatherMetrics()
	tr.end(s)
	// The single router has no downstream VCs to claim, so it publishes
	// no claim-failed counter; sched.claim_failed reads 0 here.
	sc := schedCounts{
		nominated: snap.FamilyTotal("mmr_router_sched_nominated_total"),
		stalled:   snap.FamilyTotal("mmr_router_sched_credit_stalled_total"),
		exhausted: snap.FamilyTotal("mmr_router_sched_round_exhausted_total"),
		boosted:   snap.FamilyTotal("mmr_router_sched_bias_boosted_total"),
		grants:    snap.FamilyTotal("mmr_router_flits_transmitted_total"),
	}
	return exp.Point{Load: c.load, Offered: wl.OfferedLoad, Variant: c.v.Name, M: m}, sc, nil
}

func headlineAllocsPerCycle(cells []fig5Cell, opts exp.Options) (float64, error) {
	for _, c := range cells {
		if !fig5Headline(c) {
			continue
		}
		r, _, _, err := buildCell(nil, -1, 0, 0, c, opts, false)
		if err != nil {
			return 0, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Run(opts.Warmup, opts.Measure)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(opts.Warmup+opts.Measure), nil
	}
	return 0, fmt.Errorf("paper-fig5 grid has no headline cell")
}

// schedCounts are the link schedulers' and switch's event counts, summed
// over routers. claimFailed exists only in the network, where a grant
// needs a free VC downstream.
type schedCounts struct {
	nominated, stalled, exhausted, boosted, grants, claimFailed int64
}

// netSchedCounts reads the same counts from a fabric's metric snapshot.
func netSchedCounts(snap *metrics.Snapshot) schedCounts {
	return schedCounts{
		nominated:   snap.FamilyTotal("mmr_net_sched_nominated_total"),
		stalled:     snap.FamilyTotal("mmr_net_sched_credit_stalled_total"),
		exhausted:   snap.FamilyTotal("mmr_net_sched_round_exhausted_total"),
		boosted:     snap.FamilyTotal("mmr_net_sched_bias_boosted_total"),
		grants:      snap.FamilyTotal("mmr_net_grants_total"),
		claimFailed: snap.FamilyTotal("mmr_net_claim_failed_total"),
	}
}

func (s *schedCounts) add(o schedCounts) {
	s.nominated += o.nominated
	s.stalled += o.stalled
	s.exhausted += o.exhausted
	s.boosted += o.boosted
	s.grants += o.grants
	s.claimFailed += o.claimFailed
}

func (s schedCounts) into(m map[string]float64) {
	m["sched.nominated"] = float64(s.nominated)
	m["sched.credit_stalled"] = float64(s.stalled)
	m["sched.round_exhausted"] = float64(s.exhausted)
	m["sched.bias_boosted"] = float64(s.boosted)
	m["sched.grants"] = float64(s.grants)
	m["sched.claim_failed"] = float64(s.claimFailed)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
