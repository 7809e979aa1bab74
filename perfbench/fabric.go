package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/metrics"
	"mmr/internal/network"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// Both fabric workloads repeat one deterministic unit of simulated work
// until the measured phase is over. Each unit starts by restoring the
// state set-up checkpointed, so every unit of a run must end in the same
// outcome digest — Stats() plus the final EncodeState — and every
// checkpoint round trip must re-encode byte-equal and pass the resource
// audit.

const (
	// setupReps is how often set-up runs; setup_s is a median of the
	// set-ups (per variant, then averaged, where a set-up builds one
	// variant). A set-up of a tenth of a second or less (paper-fig5,
	// fabric-churn, the daemon) runs quickSetupReps times: one such
	// set-up can take twice as long as the next, and the median of 35
	// is what holds setup_s steady from run to run.
	setupReps      = 15
	quickSetupReps = 35
	// traceReps is how many units a traced run measures untraced and
	// then traced; trace.overhead_frac compares their medians.
	traceReps = 3

	denseK        = 16                // FatTree(16): 320 routers
	denseSessions = 8                 // CBR sessions per router, opened by OpenBatch
	denseRate     = 20 * traffic.Mbps // one rate for every session
	denseBEFlows  = 2                 // best-effort flows per router
	denseBERate   = 0.02              // packets/cycle per best-effort flow
	denseWarmup   = 300               // cycles run in set-up before the start state is taken
	denseSlice    = 512               // cycles per Run call: mmrnet's control-loop slice
	densePublish  = 16                // slices between metric gathers: mmrnet's publish cadence
	denseCycles   = 2 * denseSlice    // cycles per unit
	// fabric-churn follows cmd/mmrsoak's defaults. A unit is the span
	// between two of mmrsoak's kill+restores (25 in 1M events) and ends
	// with one.
	churnEvents    = 40000 // session events per unit
	churnMaxLive   = 64    // cap on concurrently open sessions
	churnPreload   = 32    // sessions open in the start state
	churnMeanGap   = 4.0   // mean cycles between session events (Poisson)
	churnFlash     = 10000 // events between flash crowds
	churnBurst     = 32    // opens per flash crowd
	churnOutage    = 5000  // events between regional outages
	churnDowntime  = 1500  // cycles a regional outage lasts
	churnDrain     = 2000  // drain cycle budget per close
	churnWarmup    = 2000  // cycles run in set-up before the start state is taken
	churnSeedMix   = 0x50a1c
	layerDatapath  = "network.datapath"
	layerEstablish = "network.establish"
	layerAudit     = "network.audit"
)

// keepGoing reports whether another unit fits the measured phase: it
// starts one more unit when that ends nearer the deadline than stopping
// now would. Throughputs are then taken from the median unit, so a stall
// of the host during a few units does not move them.
func keepGoing(start time.Time, seconds float64, unitMs []float64) bool {
	if len(unitMs) == 0 {
		return true
	}
	return time.Since(start).Seconds()+mean(unitMs)/2e3 < seconds
}

// fabricRun is the common state of a fabric workload's unit.
type fabricRun struct {
	cfg network.Config
	s0  []byte // the start state set-up checkpointed
	tr  *tracer
	// lane-0 span every unit's spans hang under (-1 untraced)
	parent int
}

// restore builds a fresh fabric from a checkpoint payload and proves the
// round trip: the restored fabric re-encodes byte-equal and passes the
// resource audit.
func (f *fabricRun) restore(payload []byte, workers int) (*network.Network, error) {
	s := f.tr.begin("checkpoint", "checkpoint.restore", f.parent, 0, 0)
	cfg := f.cfg
	cfg.Workers = workers
	n, err := network.New(cfg)
	if err != nil {
		f.tr.end(s)
		return nil, err
	}
	err = n.RestoreState(payload)
	f.tr.end(s)
	if err != nil {
		n.Shutdown()
		return nil, incorrect("restore failed: %v", err)
	}
	again, err := f.encode(n)
	if err != nil {
		n.Shutdown()
		return nil, err
	}
	if !bytes.Equal(again, payload) {
		n.Shutdown()
		return nil, incorrect("checkpoint round trip at cycle %d re-encoded %d bytes differing from the %d restored", n.Now(), len(again), len(payload))
	}
	if err := f.audit(n); err != nil {
		n.Shutdown()
		return nil, err
	}
	return n, nil
}

func (f *fabricRun) encode(n *network.Network) ([]byte, error) {
	s := f.tr.begin("checkpoint", "checkpoint.encode", f.parent, 0, 0)
	b, err := n.EncodeState()
	f.tr.end(s)
	if err != nil {
		return nil, incorrect("EncodeState at cycle %d: %v", n.Now(), err)
	}
	return b, nil
}

func (f *fabricRun) audit(n *network.Network) error {
	s := f.tr.begin(layerAudit, "network.check_invariants", f.parent, 0, 0)
	err := n.CheckInvariants()
	f.tr.end(s)
	if err != nil {
		return incorrect("resource audit at cycle %d: %v", n.Now(), err)
	}
	return nil
}

// finish checkpoints the fabric at the end of a unit, round-trips the
// checkpoint, and returns the outcome digest.
func (f *fabricRun) finish(n *network.Network) (string, *network.Stats, error) {
	st := n.Stats()
	final, err := f.encode(n)
	if err != nil {
		return "", nil, err
	}
	n2, err := f.restore(final, 1)
	if err != nil {
		return "", nil, err
	}
	n2.Shutdown()
	d := newDigester()
	d.str(fmt.Sprintf("%+v", *st))
	d.bytes(final)
	return d.sum(), st, nil
}

// ---------------------------------------------------------------- dense

// denseSetup builds FatTree(16), opens the CBR sessions with one
// OpenBatch, adds the best-effort flows and warms the fabric up.
type denseSetupResult struct {
	cfg                 network.Config
	s0                  []byte
	openBatch           time.Duration
	requested, accepted int
	backtracks, setupLt float64
}

func denseSetup(seed uint64, tr *tracer, parent int) (*denseSetupResult, error) {
	tp, err := topology.FatTree(denseK)
	if err != nil {
		return nil, err
	}
	cfg := network.DefaultConfig(tp)
	cfg.Seed = seed
	cfg.Workers = runtime.GOMAXPROCS(0) // mmrnet's default worker count
	s := tr.begin(layerDatapath, "network.new", parent, 0, 0)
	n, err := network.New(cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer n.Shutdown()
	rng := sim.NewRNG(seed)
	reqs := make([]network.OpenReq, 0, tp.Nodes*denseSessions)
	for i := 0; i < tp.Nodes*denseSessions; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			dst = (dst + 1) % tp.Nodes
		}
		// One rate for every session keeps a cycle's cost alike across
		// seeds; the seed places the sessions.
		reqs = append(reqs, network.OpenReq{Src: src, Dst: dst, Spec: traffic.ConnSpec{Class: flit.ClassCBR, Rate: denseRate}})
	}
	r := &denseSetupResult{cfg: cfg, requested: len(reqs)}
	runtime.GC() // keep the construction garbage out of the timed batch
	t := time.Now()
	s = tr.begin(layerEstablish, "network.openbatch", parent, 0, 0)
	res := n.OpenBatch(reqs)
	tr.end(s)
	r.openBatch = time.Since(t)
	for _, x := range res {
		if x.Err == nil {
			r.accepted++
		}
	}
	for i := 0; i < tp.Nodes*denseBEFlows; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		if _, err := n.AddBestEffortFlow(src, dst, denseBERate); err != nil {
			return nil, err
		}
	}
	s = tr.begin(layerDatapath, "network.run", parent, 0, 0)
	n.Run(denseWarmup)
	tr.end(s)
	st := n.Stats()
	r.backtracks, r.setupLt = st.SetupBacktracks.Mean(), st.SetupLatency.Mean()
	n.ResetStats()
	f := fabricRun{tr: tr, parent: parent}
	if r.s0, err = f.encode(n); err != nil {
		return nil, err
	}
	return r, nil
}

// denseUnit is one unit: restore the start state, run denseCycles in
// Run calls of denseSlice cycles, then a checkpoint round trip. Metrics
// are gathered after every densePublish-th slice of the run, which
// *slices counts across units, and once more before the checkpoint: a
// gather mirrors counters into the metric registry, which the
// checkpoint holds, so the closing gather keeps the outcome digest
// independent of where the publish cadence falls in a unit.
type denseUnitResult struct {
	digest   string
	st       *network.Stats
	sliceMs  []float64
	runNs    float64 // Σ Run time
	mallocs  uint64  // heap allocations during Run calls (traced runs only)
	fused    int64
	gatherUs []float64
	sched    schedCounts
}

func denseUnit(f *fabricRun, workers int, slices *int, traced bool) (*denseUnitResult, error) {
	n, err := f.restore(f.s0, workers)
	if err != nil {
		return nil, err
	}
	defer n.Shutdown()
	u := &denseUnitResult{}
	fused0 := n.FusedDrainCycles()
	var ms runtime.MemStats
	gather := func() *metrics.Snapshot {
		s := f.tr.begin("metrics", "metrics.gather", f.parent, 0, 0)
		t := time.Now()
		snap := n.GatherMetrics()
		u.gatherUs = append(u.gatherUs, float64(time.Since(t).Nanoseconds())/1e3)
		f.tr.end(s)
		return snap
	}
	for i := 0; i < denseCycles/denseSlice; i++ {
		if traced {
			runtime.ReadMemStats(&ms)
			u.mallocs -= ms.Mallocs
		}
		s := f.tr.begin(layerDatapath, "network.run", f.parent, 0, 0)
		t := time.Now()
		n.Run(denseSlice)
		d := time.Since(t)
		f.tr.end(s)
		if traced {
			runtime.ReadMemStats(&ms)
			u.mallocs += ms.Mallocs
		}
		u.sliceMs = append(u.sliceMs, float64(d.Nanoseconds())/1e6)
		u.runNs += float64(d.Nanoseconds())
		if *slices++; *slices%densePublish == 0 {
			gather()
		}
	}
	u.sched = netSchedCounts(gather())
	u.fused = n.FusedDrainCycles() - fused0
	if u.digest, u.st, err = f.finish(n); err != nil {
		return nil, err
	}
	return u, nil
}

func denseDigest(seed uint64) (string, error) {
	sr, err := denseSetup(seed, nil, -1)
	if err != nil {
		return "", err
	}
	var slices int
	u, err := denseUnit(&fabricRun{cfg: sr.cfg, s0: sr.s0, parent: -1}, sr.cfg.Workers, &slices, false)
	if err != nil {
		return "", err
	}
	return u.digest, nil
}

func runDense(rc runConfig) (*outcome, error) {
	rec, err := loadRecorded()
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return traceDense(rc, rec)
	}
	// Set-up i builds variant i mod nv; the last build of each variant is
	// the one its units restore.
	nv := seedVariants["fabric-dense"]
	setups := make([][]float64, nv)
	var obRates []float64
	srs := make([]*denseSetupResult, nv)
	for i := 0; i < setupReps; i++ {
		v := i % nv
		// The previous set-up's fabric is garbage; collecting it first
		// keeps that collection out of this set-up's time.
		runtime.GC()
		t := time.Now()
		if srs[v], err = denseSetup(variantSeed(rc.seed, v), nil, -1); err != nil {
			return nil, err
		}
		setups[v] = append(setups[v], time.Since(t).Seconds())
		obRates = append(obRates, float64(srs[v].requested)/srs[v].openBatch.Seconds())
	}
	runs := newVariantRuns("fabric-dense")
	firsts := make([]*denseUnitResult, nv)
	var sliceMs []float64
	var slices int
	start := time.Now()
	for rep := 0; needMore(runs, keepGoing(start, rc.seconds, runs.all())); rep++ {
		v := rep % nv
		// Collecting the previous unit's fabrics first keeps the peak
		// resident set from depending on when the collector happens to run.
		runtime.GC()
		t := time.Now()
		u, err := denseUnit(&fabricRun{cfg: srs[v].cfg, s0: srs[v].s0, parent: -1}, srs[v].cfg.Workers, &slices, false)
		if err != nil {
			return nil, err
		}
		if err := runs.add(v, float64(time.Since(t).Nanoseconds())/1e6, u.digest); err != nil {
			return nil, err
		}
		sliceMs = append(sliceMs, u.sliceMs...)
		if firsts[v] == nil {
			firsts[v] = u
		}
	}
	if err := runs.check(rec, rc.seed); err != nil {
		return nil, err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	nodes := float64(srs[0].cfg.Topology.Nodes)
	work := make([]float64, nv)
	var delay, jitter []float64
	var req, acc int
	for v, u := range firsts {
		work[v] = denseCycles * nodes
		delay = append(delay, u.st.Latency.Mean())
		jitter = append(jitter, u.st.Jitter.Mean())
		req += srs[v].requested
		acc += srs[v].accepted
	}
	p50, p99 := median(sliceMs), tail(sliceMs, 0.99)
	return &outcome{
		metrics: map[string]float64{
			"setup_s":              meanOfMedians(setups),
			"router_cycles_per_s":  runs.rate(work),
			"session_events_per_s": median(obRates).Value,
			"peak_rss_bytes":       rss,
			"req_p50_ms":           p50.Value,
			"sim_delay_cycles":     mean(delay),
			"sim_jitter_cycles":    mean(jitter),
			"sim_accept_ratio":     float64(acc) / float64(req),
		},
		attempted: int64(len(sliceMs)),
		notes: []string{
			fmt.Sprintf("fabric-dense: %s, %d cycles each on %d routers at %d workers, digests %s", runs, denseCycles, int(nodes), srs[0].cfg.Workers, runs.digestList()),
			fmt.Sprintf("req_p50_ms is the %s Run slices of %d cycles, req_p99_ms the %s = %.4f ms", p50, denseSlice, p99, p99.Value),
			fmt.Sprintf("OpenBatch admitted %d of %d sessions", acc, req),
		},
	}, nil
}

// traceDense runs set-up once, one untraced unit (the overhead
// reference), one traced unit at the default worker count and the same
// unit again after SetWorkers(1).
func traceDense(rc runConfig, rec *recorded) (*outcome, error) {
	sr, err := denseSetup(rc.seed, nil, -1)
	if err != nil {
		return nil, err
	}
	// One unit warms the heap and the flit pools before any is timed.
	var untraced []float64
	var ref *denseUnitResult
	var slices int
	for i := -1; i < traceReps; i++ {
		runtime.GC()
		t := time.Now()
		if ref, err = denseUnit(&fabricRun{cfg: sr.cfg, s0: sr.s0, parent: -1}, sr.cfg.Workers, &slices, false); err != nil {
			return nil, err
		}
		if i >= 0 {
			untraced = append(untraced, float64(time.Since(t).Nanoseconds()))
		}
	}

	tr := newTracer()
	root := tr.begin(otherLayer, "lane", -1, 0, 0)
	setup := tr.begin("bench", "setup", root, 0, 0)
	sr2, err := denseSetup(rc.seed, tr, setup)
	if err != nil {
		return nil, err
	}
	tr.end(setup)
	f := &fabricRun{cfg: sr2.cfg, s0: sr2.s0, tr: tr}
	var traced []float64
	var units []*denseUnitResult
	slices = 0
	for i := 0; i < traceReps; i++ {
		runtime.GC()
		f.parent = tr.begin("bench", "unit", root, 0, 0)
		t := time.Now()
		u, err := denseUnit(f, sr.cfg.Workers, &slices, true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, float64(time.Since(t).Nanoseconds()))
		tr.end(f.parent)
		units = append(units, u)
	}
	f.parent = tr.begin("bench", "unit.serial", root, 0, 0)
	ser, err := denseUnit(f, 1, &slices, false)
	if err != nil {
		return nil, err
	}
	tr.end(f.parent)
	tr.end(root)
	for _, u := range append(units, ser) {
		if u.digest != ref.digest {
			return nil, incorrect("fabric-dense traced unit digest %s differs from the untraced %s", u.digest, ref.digest)
		}
	}
	if err := checkDigests(rec, "fabric-dense", rc.seed, []string{ref.digest}); err != nil {
		return nil, err
	}
	var runNs float64
	var mallocs uint64
	var gatherUs, sliceMs []float64
	for _, u := range units {
		sliceMs = append(sliceMs, u.sliceMs...)
		runNs += u.runNs
		mallocs += u.mallocs
		gatherUs = append(gatherUs, u.gatherUs...)
	}
	cycles := float64(traceReps * denseCycles)
	p99 := tail(sliceMs, 0.99)
	stepNs := runNs / cycles
	serialNs := ser.runNs / denseCycles
	m := map[string]float64{
		"network.step_ns":                  stepNs,
		"network.step_ns.serial":           serialNs,
		"network.speedup":                  serialNs / stepNs,
		"network.allocs_per_cycle":         float64(mallocs) / cycles,
		"network.fused_drain_cycles":       float64(units[0].fused),
		"network.run_ms":                   runNs / traceReps / 1e6,
		"network.openbatch_us_per_session": float64(sr2.openBatch.Nanoseconds()) / 1e3 / float64(sr2.requested),
		"routing.backtracks_mean":          sr2.backtracks,
		"network.setup_latency_cycles":     sr2.setupLt,
		"network.check_invariants_ms":      mean(tr.durations(layerAudit, "network.check_invariants")) / 1e6,
		"checkpoint.encode_ms":             mean(tr.durations("checkpoint", "checkpoint.encode")) / 1e6,
		"checkpoint.restore_ms":            mean(tr.durations("checkpoint", "checkpoint.restore")) / 1e6,
		"checkpoint.bytes":                 float64(len(sr2.s0)),
		"metrics.gather_us":                mean(gatherUs),
		"trace.overhead_frac":              median(traced).Value/median(untraced).Value - 1,
		"req_p99_ms":                       p99.Value,
	}
	statsInto(units[0].st, m)
	units[0].sched.into(m)
	layerFracs(tr.attribution(), m)
	return &outcome{metrics: m, attempted: int64(len(sliceMs) + len(ser.sliceMs)), tracer: tr,
		notes: []string{
			fmt.Sprintf("fabric-dense traced: %d units at %d workers and one at 1, digest %s", traceReps, sr.cfg.Workers, ref.digest),
			fmt.Sprintf("req_p99_ms is the %s traced Run slices", p99),
		}}, nil
}

// statsInto copies the fault-lifecycle counts of a unit's Stats.
func statsInto(st *network.Stats, m map[string]float64) {
	m["network.conns_broken"] = float64(st.ConnsBroken)
	m["network.conns_restored"] = float64(st.ConnsRestored)
	m["network.conns_degraded"] = float64(st.ConnsDegraded)
	m["network.conns_promoted"] = float64(st.ConnsPromoted)
}

// layerFracs records each layer's share of the traced run's self time.
func layerFracs(a attribution, m map[string]float64) {
	for _, l := range []string{"exp", "traffic", "router", layerDatapath, layerEstablish, layerAudit, "faults", "checkpoint", "metrics", "daemon", "bench"} {
		m["layer."+l+".self_frac"] = a.selfFrac(l)
	}
	m["other.self_frac"] = a.selfFrac(otherLayer)
}

// ---------------------------------------------------------------- churn

// churnSetup builds the 4×4 mesh, opens the preloaded sessions and warms
// the fabric up.
func churnSetup(seed uint64, tr *tracer, parent int) (network.Config, []byte, error) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		return network.Config{}, nil, err
	}
	cfg := network.DefaultConfig(tp)
	cfg.VCs = 32
	cfg.Seed = seed ^ churnSeedMix
	n, err := network.New(cfg)
	if err != nil {
		return cfg, nil, err
	}
	defer n.Shutdown()
	rng := sim.NewRNG(seed ^ 0x5e7)
	for i := 0; i < churnPreload; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			dst = (dst + 1) % tp.Nodes
		}
		s := tr.begin(layerEstablish, "network.open", parent, 0, 0)
		n.Open(src, dst, randomSpec(rng)) // a refusal only thins the preload
		tr.end(s)
	}
	s := tr.begin(layerDatapath, "network.run", parent, 0, 0)
	n.Run(churnWarmup)
	tr.end(s)
	n.ResetStats()
	f := fabricRun{tr: tr, parent: parent}
	s0, err := f.encode(n)
	return cfg, s0, err
}

func randomSpec(rng *sim.RNG) traffic.ConnSpec {
	spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]}
	if rng.Float64() < 0.3 {
		spec.Class = flit.ClassVBR
		spec.PeakRate = 3 * spec.Rate
		spec.Priority = rng.Intn(4)
	}
	return spec
}

// churnUnit is the soak loop of cmd/mmrsoak, sized to a unit: Poisson
// session arrivals and departures (and rate renegotiations with
// probability modifyP), flash crowds and regional outages, from the
// start state and the workload seed, ending in a kill+restore.
type churnUnitResult struct {
	digest                    string
	st                        *network.Stats
	events                    int64
	cycles                    int64
	openUs, closeUs, modifyUs []float64
	runNs                     float64
	fused                     int64
	sched                     schedCounts
}

type churnState struct {
	f       *fabricRun
	n       *network.Network
	rng     *sim.RNG
	live    []*network.Conn
	u       *churnUnitResult
	now0    int64
	opens   int64
	modifyP float64
}

// churnModifyP is the share of session events that would renegotiate a
// session's rate with ModifyBandwidth. The workload runs with none: a
// rate change on a gated fabric leaves the source due flits in cycles
// the datapath already elided, which the next checkpoint's quiesce
// audit refuses (a program defect that TestChurnModifyBandwidth
// reproduces). Raise it once ModifyBandwidth catches its source up at
// the old rate first.
const churnModifyP = 0.2

func churnUnit(f *fabricRun, seed uint64, modifyP float64) (*churnUnitResult, error) {
	n, err := f.restore(f.s0, 1)
	if err != nil {
		return nil, err
	}
	c := &churnState{f: f, n: n, rng: sim.NewRNG(seed), u: &churnUnitResult{}, now0: n.Now(), modifyP: modifyP}
	defer func() { c.n.Shutdown() }()
	c.relist()
	lastFaultEnd := int64(-1)
	for ev := int64(1); ev <= churnEvents; ev++ {
		gap := 1 + int64(c.rng.Exp(churnMeanGap))
		s := f.tr.begin(layerDatapath, "network.run", f.parent, 0, 0)
		t := time.Now()
		c.n.Run(gap)
		c.u.runNs += float64(time.Since(t).Nanoseconds())
		f.tr.end(s)
		c.event()
		if ev%churnFlash == 0 {
			for i := 0; i < churnBurst; i++ {
				c.open()
			}
		}
		if ev%churnOutage == 0 && c.n.Now() > lastFaultEnd {
			at := c.n.Now() + 10
			center := c.rng.Intn(f.cfg.Topology.Nodes)
			plan := faults.NewPlan(seed^uint64(at)).FailRegionAt(f.cfg.Topology, center, 1, at, churnDowntime)
			s := f.tr.begin("faults", "faults.apply", f.parent, 0, 0)
			err := c.n.ApplyPlan(plan, at+churnDowntime+1)
			f.tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("regional outage at node %d: %w", center, err)
			}
			lastFaultEnd = at + churnDowntime
		}
	}
	c.u.cycles = c.n.Now() - c.now0
	// A gather mirrors counters into the metric registry, which the
	// checkpoint holds, so every unit gathers here, traced or not.
	s := f.tr.begin("metrics", "metrics.gather", f.parent, 0, 0)
	c.u.sched = netSchedCounts(c.n.GatherMetrics())
	f.tr.end(s)
	// The unit ends as mmrsoak's kill+restore: its checkpoint is the
	// unit's final state, and the restored fabric must conserve it.
	st := c.n.Stats()
	final, err := c.killAndRestore()
	if err != nil {
		return nil, err
	}
	d := newDigester()
	d.str(fmt.Sprintf("%+v", *st))
	d.bytes(final)
	c.u.digest, c.u.st = d.sum(), st
	return c.u, nil
}

// relist re-derives the workload's tracked sessions from the fabric:
// everything not yet closed or lost, in connection order.
func (c *churnState) relist() {
	c.live = c.live[:0]
	for _, x := range c.n.Conns() {
		if !x.Closed() && !x.Lost() {
			c.live = append(c.live, x)
		}
	}
}

func (c *churnState) tracked() []*network.Conn {
	out := c.live[:0]
	for _, x := range c.live {
		if !x.Closed() && !x.Lost() {
			out = append(out, x)
		}
	}
	c.live = out
	return out
}

// event performs one session event: a rate renegotiation with
// probability modifyP, otherwise an open or a close, opens dominating
// until the live cap.
func (c *churnState) event() {
	live := c.tracked()
	if c.modifyP > 0 && len(live) > 0 && c.rng.Float64() < c.modifyP {
		x := live[c.rng.Intn(len(live))]
		if x.Open() && x.Spec.Class == flit.ClassCBR {
			rate := traffic.PaperRates[c.rng.Intn(len(traffic.PaperRates))]
			c.timed(&c.u.modifyUs, "network.modify", func() { c.n.ModifyBandwidth(x, rate) }) // a refusal is an answer
			return
		}
	}
	if len(live) > 0 && (len(live) >= churnMaxLive || c.rng.Float64() < 0.5) {
		start := c.rng.Intn(len(live))
		for i := range live {
			x := live[(start+i)%len(live)]
			if x.Open() || (x.Degraded && !x.Closed()) {
				// A drain cut short by a fault is workload noise; the
				// resource audits decide whether state leaked.
				c.timed(&c.u.closeUs, "network.close", func() { c.n.DrainAndClose(x, churnDrain) })
				return
			}
		}
	}
	c.open()
}

func (c *churnState) open() {
	nodes := c.f.cfg.Topology.Nodes
	src, dst := c.rng.Intn(nodes), c.rng.Intn(nodes)
	if src == dst {
		dst = (dst + 1) % nodes
	}
	spec := randomSpec(c.rng)
	c.opens++
	// Every 16th open goes through the journaled retry path, so a kill
	// can land with a pending retry in the checkpoint.
	if c.opens%16 == 0 {
		c.timed(&c.u.openUs, "network.open", func() {
			c.n.OpenWithRetry(src, dst, spec, func(x *network.Conn, err error) {
				if err == nil {
					c.live = append(c.live, x)
				}
			})
		})
		return
	}
	c.timed(&c.u.openUs, "network.open", func() {
		if x, err := c.n.Open(src, dst, spec); err == nil {
			c.live = append(c.live, x)
		}
	})
}

func (c *churnState) timed(into *[]float64, name string, fn func()) {
	c.u.events++
	s := c.f.tr.begin(layerEstablish, name, c.f.parent, 0, 0)
	t := time.Now()
	fn()
	*into = append(*into, float64(time.Since(t).Nanoseconds())/1e3)
	c.f.tr.end(s)
}

// killAndRestore checkpoints the fabric, discards it and continues on a
// fabric restored from the checkpoint, auditing conservation of the
// clock, the open sessions and the delivery counters. It returns the
// checkpoint.
func (c *churnState) killAndRestore() ([]byte, error) {
	now, open, st := c.n.Now(), countOpen(c.n), c.n.Stats()
	payload, err := c.f.encode(c.n)
	if err != nil {
		return nil, err
	}
	c.u.fused += c.n.FusedDrainCycles()
	c.n.Shutdown()
	n2, err := c.f.restore(payload, 1)
	if err != nil {
		return nil, err
	}
	c.n = n2
	after := n2.Stats()
	switch {
	case n2.Now() != now:
		return nil, incorrect("restore moved the clock: %d != %d", n2.Now(), now)
	case countOpen(n2) != open:
		return nil, incorrect("restore changed the open sessions: %d != %d", countOpen(n2), open)
	case after.FlitsDelivered != st.FlitsDelivered || after.FlitsGenerated != st.FlitsGenerated ||
		after.SetupAccepted != st.SetupAccepted || after.Closed != st.Closed || after.ConnsPromoted != st.ConnsPromoted:
		return nil, incorrect("restore drifted the counters at cycle %d", now)
	}
	c.relist()
	return payload, nil
}

func countOpen(n *network.Network) int {
	open := 0
	for _, c := range n.Conns() {
		if c.Open() {
			open++
		}
	}
	return open
}

func churnDigest(seed uint64) (string, error) {
	cfg, s0, err := churnSetup(seed, nil, -1)
	if err != nil {
		return "", err
	}
	u, err := churnUnit(&fabricRun{cfg: cfg, s0: s0, parent: -1}, seed, 0)
	if err != nil {
		return "", err
	}
	return u.digest, nil
}

func runChurn(rc runConfig) (*outcome, error) {
	rec, err := loadRecorded()
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return traceChurn(rc, rec)
	}
	nv := seedVariants["fabric-churn"]
	setups := make([][]float64, nv)
	fs := make([]*fabricRun, nv)
	for i := 0; i < quickSetupReps; i++ {
		v := i % nv
		runtime.GC()
		t := time.Now()
		cfg, s0, err := churnSetup(variantSeed(rc.seed, v), nil, -1)
		if err != nil {
			return nil, err
		}
		setups[v] = append(setups[v], time.Since(t).Seconds())
		fs[v] = &fabricRun{cfg: cfg, s0: s0, parent: -1}
	}
	runs := newVariantRuns("fabric-churn")
	firsts := make([]*churnUnitResult, nv)
	var p50s, p99s []float64
	var events int64
	n := 0
	start := time.Now()
	for rep := 0; needMore(runs, keepGoing(start, rc.seconds, runs.all())); rep++ {
		v := rep % nv
		runtime.GC()
		t := time.Now()
		u, err := churnUnit(fs[v], variantSeed(rc.seed, v), 0)
		if err != nil {
			return nil, err
		}
		if err := runs.add(v, float64(time.Since(t).Nanoseconds())/1e6, u.digest); err != nil {
			return nil, err
		}
		// A unit holds thousands of session events, enough to back its
		// own p99; the run reports the median unit's percentiles.
		lat := append(append(append([]float64(nil), u.openUs...), u.closeUs...), u.modifyUs...)
		q := tail(lat, 0.99)
		if q.Rank != "p99" {
			return nil, fmt.Errorf("fabric-churn unit of %d events cannot back a p99", len(lat))
		}
		p50s = append(p50s, median(lat).Value/1e3)
		p99s = append(p99s, q.Value/1e3)
		n = len(lat)
		events += u.events
		if firsts[v] == nil {
			firsts[v] = u
		}
	}
	if err := runs.check(rec, rc.seed); err != nil {
		return nil, err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	nodes := float64(fs[0].cfg.Topology.Nodes)
	cycles, evs := make([]float64, nv), make([]float64, nv)
	var delay, jitter []float64
	var acc, att int64
	for v, u := range firsts {
		cycles[v] = float64(u.cycles) * nodes
		evs[v] = float64(u.events)
		delay = append(delay, u.st.Latency.Mean())
		jitter = append(jitter, u.st.Jitter.Mean())
		acc += u.st.SetupAccepted
		att += u.st.SetupAttempts
	}
	return &outcome{
		metrics: map[string]float64{
			"setup_s":              meanOfMedians(setups),
			"router_cycles_per_s":  runs.rate(cycles),
			"session_events_per_s": runs.rate(evs),
			"peak_rss_bytes":       rss,
			"req_p50_ms":           median(p50s).Value,
			"sim_delay_cycles":     mean(delay),
			"sim_jitter_cycles":    mean(jitter),
			"sim_accept_ratio":     float64(acc) / float64(att),
		},
		attempted: events,
		notes: []string{
			fmt.Sprintf("fabric-churn: %s, about %d session events and one kill+restore each, digests %s", runs, firsts[0].events, runs.digestList()),
			fmt.Sprintf("req_p50_ms is the median over units of each unit's p50 of about %d session-event calls; the same median of p99s is %.4f ms", n, median(p99s).Value),
		},
	}, nil
}

func traceChurn(rc runConfig, rec *recorded) (*outcome, error) {
	cfg, s0, err := churnSetup(rc.seed, nil, -1)
	if err != nil {
		return nil, err
	}
	// One unit warms the heap before any is timed.
	var untraced []float64
	var ref *churnUnitResult
	for i := -1; i < traceReps; i++ {
		runtime.GC()
		t := time.Now()
		if ref, err = churnUnit(&fabricRun{cfg: cfg, s0: s0, parent: -1}, rc.seed, 0); err != nil {
			return nil, err
		}
		if i >= 0 {
			untraced = append(untraced, float64(time.Since(t).Nanoseconds()))
		}
	}

	tr := newTracer()
	root := tr.begin(otherLayer, "lane", -1, 0, 0)
	setup := tr.begin("bench", "setup", root, 0, 0)
	cfg, s0, err = churnSetup(rc.seed, tr, setup)
	if err != nil {
		return nil, err
	}
	tr.end(setup)
	var traced, p99s []float64
	var u *churnUnitResult
	for i := 0; i < traceReps; i++ {
		runtime.GC()
		unit := tr.begin("bench", "unit", root, 0, 0)
		t := time.Now()
		if u, err = churnUnit(&fabricRun{cfg: cfg, s0: s0, tr: tr, parent: unit}, rc.seed, 0); err != nil {
			return nil, err
		}
		traced = append(traced, float64(time.Since(t).Nanoseconds()))
		tr.end(unit)
		lat := append(append(append([]float64(nil), u.openUs...), u.closeUs...), u.modifyUs...)
		p99s = append(p99s, tail(lat, 0.99).Value/1e3)
		if u.digest != ref.digest {
			return nil, incorrect("fabric-churn traced unit digest %s differs from the untraced %s", u.digest, ref.digest)
		}
	}
	tr.end(root)
	if err := checkDigests(rec, "fabric-churn", rc.seed, []string{u.digest}); err != nil {
		return nil, err
	}
	a := tr.attribution()
	open, cls := tail(u.openUs, 0.99), tail(u.closeUs, 0.99)
	m := map[string]float64{
		"network.step_ns":              u.runNs / float64(u.cycles),
		"network.fused_drain_cycles":   float64(u.fused),
		"network.run_ms":               u.runNs / 1e6,
		"network.open_us.p50":          median(u.openUs).Value,
		"network.open_us.p99":          open.Value,
		"network.close_us.p99":         cls.Value,
		"routing.backtracks_mean":      u.st.SetupBacktracks.Mean(),
		"network.setup_latency_cycles": u.st.SetupLatency.Mean(),
		"faults.apply_us":              mean(tr.durations("faults", "faults.apply")) / 1e3,
		"network.check_invariants_ms":  mean(tr.durations(layerAudit, "network.check_invariants")) / 1e6,
		"checkpoint.encode_ms":         mean(tr.durations("checkpoint", "checkpoint.encode")) / 1e6,
		"checkpoint.restore_ms":        mean(tr.durations("checkpoint", "checkpoint.restore")) / 1e6,
		"checkpoint.bytes":             float64(len(s0)),
		"trace.overhead_frac":          median(traced).Value/median(untraced).Value - 1,
		"req_p99_ms":                   median(p99s).Value,
	}
	statsInto(u.st, m)
	u.sched.into(m)
	layerFracs(a, m)
	return &outcome{metrics: m, attempted: u.events, tracer: tr,
		notes: []string{
			fmt.Sprintf("fabric-churn traced: %d session events, one kill+restore, digest %s", u.events, u.digest),
			fmt.Sprintf("network.open_us.p99 is the %s, close the %s", open, cls),
		}}, nil
}
