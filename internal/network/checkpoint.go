package network

import (
	"fmt"
	"math"
	"sort"

	"mmr/internal/checkpoint"
	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/routing"
	"mmr/internal/sim"
	"mmr/internal/stats"
	"mmr/internal/traffic"
)

// checkpoint.go serializes the complete mutable state of a Network and
// restores it into a freshly built one, bit-exactly: a restored fabric
// stepped to cycle M produces the same statistics, metrics, session log
// and flight-recorder contents as the uninterrupted run, for any worker
// count and gating mode (the config hash deliberately excludes both).
//
// What is serialized: the clock, every RNG stream, link up/down state,
// session statistics, the session log, impairments, the expanded fault
// schedule, every connection (records, source state, interface queue),
// best-effort flows, per-router state (VC reservations, buffered flits,
// shadow credits, upstream pointers, admission registers, scheduler
// election + counters, staging lanes, channel mappings, metric shards,
// flight recorders), and the durable-event journal.
//
// What is deliberately NOT serialized, because it is recomputed or
// provably empty at a cycle boundary: routing tables (recomputed from
// link state), VCM status bit vectors (rebuilt by RestoreState/Push),
// per-cycle scheduling scratch (cands/grants/grantVC), staged drop
// credits and claim slots (always empty/-1 between cycles — enforced),
// flit pools (pooling is unobservable), and the idle-skip diagnostic
// counter.

// EncodeState serializes the network's full mutable state. It must be
// called between cycles (never from inside an event or phase) and
// refuses to run while state that cannot round-trip is in flight: an
// active establishment probe, or a pending event that is not in the
// durable journal (anything scheduled via Network.Schedule directly).
func (n *Network) EncodeState() ([]byte, error) {
	if n.activeProbes > 0 {
		return nil, fmt.Errorf("network: cannot checkpoint with %d establishment probes in flight", n.activeProbes)
	}
	if p := n.events.Pending(); p != len(n.durables) {
		return nil, fmt.Errorf("network: cannot checkpoint: %d pending events but only %d in the durable journal (events scheduled via Schedule hold closures a checkpoint cannot serialize)", p, len(n.durables))
	}
	for _, nd := range n.nodes {
		if len(nd.dropCredits) != 0 {
			return nil, fmt.Errorf("network: cannot checkpoint mid-cycle: node %d has staged drop credits", nd.id)
		}
		for p := range nd.claim {
			if nd.claim[p].vc != -1 {
				return nil, fmt.Errorf("network: cannot checkpoint mid-cycle: node %d has a staged VC claim on port %d", nd.id, p)
			}
		}
	}
	if err := n.quiesce(); err != nil {
		return nil, err
	}
	c := checkpoint.NewEncoder()
	if err := n.walkState(c); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
}

// RestoreState deserializes a payload produced by EncodeState into n,
// which must be freshly built by New with an equivalent configuration
// (same geometry, seed and policies; worker count and gating are free).
// Do not call ApplyPlan or schedule anything before restoring — the
// checkpoint carries the fault schedule and every pending event. Every
// decoded node, port, VC, count and time is range-checked, so a corrupt
// payload yields an error, never a panic; after a successful restore the
// global resource invariants are audited.
func (n *Network) RestoreState(payload []byte) error {
	if n.now != 0 || len(n.conns) != 0 || len(n.beFlows) != 0 ||
		n.events.Pending() != 0 || len(n.sessionLog) != 0 || len(n.faultSchedule) != 0 {
		return fmt.Errorf("network: restore target must be a freshly built network")
	}
	return n.walkState(checkpoint.NewDecoder(payload))
}

// walkState is the checkpoint layout: one pass over the network's
// mutable state that EncodeState runs with an encoding codec and
// RestoreState with a decoding one. Steps only one direction needs sit
// in local Decoding branches of the section that owns them: encoding
// sorts map keys and counts sparse VC lists; decoding builds sources and
// flits, range-checks what it read, and rebuilds derived state.
func (n *Network) walkState(c *checkpoint.Codec) error {
	dec := c.Decoding()
	nodes, radix, vcs := len(n.nodes), n.cfg.radix(), n.cfg.VCs

	c.I64(&n.now)
	c.Check("clock", int(n.now), 0, math.MaxInt)
	walkRNG(c, n.rng)

	tp := n.cfg.Topology
	nl := len(tp.Links)
	c.Int(&nl)
	c.Check("link count", nl, len(tp.Links), len(tp.Links)+1)
	for _, l := range tp.Links {
		up := tp.LinkUp(l.A, l.APort)
		c.Bool(&up)
		if dec && c.Err() == nil && tp.LinkUp(l.A, l.APort) != up {
			tp.SetLinkUp(l.A, l.APort, up)
		}
	}
	if dec {
		if err := c.Err(); err != nil {
			return err
		}
		n.dists.Recompute(tp)
		n.ud.Rebuild()
	}

	m := &n.m
	c.I64(&m.cycles)
	c.I64(&m.setupAttempts)
	c.I64(&m.setupAccepted)
	c.I64(&m.setupRejected)
	c.I64(&m.setupRetries)
	c.I64(&m.closed)
	walkAcc(c, &m.setupLatency)
	walkAcc(c, &m.setupBacktracks)
	c.I64(&m.faultsInjected)
	c.I64(&m.faultsRepaired)
	c.I64(&m.faultFlitsLost)
	c.I64(&m.connsBroken)
	c.I64(&m.connsRestored)
	c.I64(&m.connsDegraded)
	c.I64(&m.connsLost)
	walkAcc(c, &m.restoreLatency)

	n.sessionLog = checkpoint.Slice(c, n.sessionLog, "session log")
	for i := range n.sessionLog {
		ev := &n.sessionLog[i]
		c.I64(&ev.Cycle)
		c.String(&ev.Kind)
		checkpoint.Word(c, &ev.Conn)
		c.Int(&ev.Node)
		c.Int(&ev.Port)
		c.String(&ev.Detail)
	}

	// Impairments live in a map; encoding writes them in (node, port)
	// order so equal fabrics checkpoint to equal bytes.
	var imps []faults.Impairment
	if !dec {
		imps = make([]faults.Impairment, 0, len(n.impair))
		for _, im := range n.impair {
			imps = append(imps, im)
		}
		sort.Slice(imps, func(i, j int) bool {
			if imps[i].Node != imps[j].Node {
				return imps[i].Node < imps[j].Node
			}
			return imps[i].Port < imps[j].Port
		})
	}
	imps = checkpoint.Slice(c, imps, "impairments")
	for i := range imps {
		im := &imps[i]
		c.Bounded(&im.Node, nodes, "impaired node")
		c.Bounded(&im.Port, tp.Ports, "impaired port")
		c.F64(&im.DropProb)
		c.F64(&im.CorruptProb)
		if dec {
			n.impair[[2]int{im.Node, im.Port}] = *im
		}
	}

	n.faultSchedule = checkpoint.Slice(c, n.faultSchedule, "fault schedule")
	for i := range n.faultSchedule {
		ev := &n.faultSchedule[i]
		c.I64(&ev.Cycle)
		checkpoint.Word(c, &ev.Kind)
		c.Bounded(&ev.Node, nodes, "fault node")
		c.Bounded(&ev.Port, tp.Ports, "fault port")
	}

	nc := len(n.conns)
	c.Count(&nc, "connections")
	for i := 0; i < nc; i++ {
		var cn *Conn
		if dec {
			// Appended before its walk so flits queued for it see it.
			cn = &Conn{ID: flit.ConnID(i), dstSlot: -1}
			n.conns = append(n.conns, cn)
		} else {
			cn = n.conns[i]
		}
		n.walkConn(c, cn)
		if !dec {
			continue
		}
		if err := c.Err(); err != nil {
			return err
		}
		// Terminal connections (closed, degraded, lost) are pruned from
		// the per-node injector lists on the live fabric; mirror that here
		// so the restored scan lists — and therefore per-cycle cost —
		// match the fabric that wrote the checkpoint.
		if !cn.terminal() {
			n.nodes[cn.Src].srcConns = append(n.nodes[cn.Src].srcConns, cn)
		}
		// Trackers grow only at the ejecting node. Replaying connections
		// in ID order reproduces the per-destination slot assignment the
		// live admission path made when each connection was accepted.
		n.assignTrackerSlot(cn)
	}

	checkpoint.Word(c, &n.nextFlowID)
	nbf := len(n.beFlows)
	c.Count(&nbf, "best-effort flows")
	for i := 0; i < nbf; i++ {
		var bf *beFlow
		if dec {
			bf = &beFlow{}
		} else {
			bf = n.beFlows[i]
		}
		n.walkFlow(c, bf)
		if dec {
			if err := c.Err(); err != nil {
				return err
			}
			n.beFlows = append(n.beFlows, bf)
			n.nodes[bf.src].beSrc = append(n.nodes[bf.src].beSrc, bf)
		}
	}

	mapped := make([][2]routing.VCRef, 0, radix*vcs) // channel maps to encode, reused per node
	for _, nd := range n.nodes {
		walkRNG(c, nd.rng)
		c.I64(&nd.pktSeq)
		c.I64(&nd.lastRound)

		ds := &nd.stats
		c.I64(&ds.generated)
		c.I64(&ds.delivered)
		c.I64(&ds.linkFlits)
		c.I64(&ds.beGenerated)
		c.I64(&ds.beDelivered)
		walkAcc(c, &ds.beLatency)
		c.I64(&ds.flitsDropped)
		c.I64(&ds.flitsCorrupted)

		// The tracker was sized by the connection walk above.
		tr := ds.tracker
		tn := tr.NumConns()
		c.Int(&tn)
		c.Check("tracked connection count", tn, tr.NumConns(), tr.NumConns()+1)
		walkAcc(c, tr.Delay())
		walkAcc(c, tr.Jitter())
		for i := 0; i < tr.NumConns(); i++ {
			walkAcc(c, tr.ConnDelay(i))
			walkAcc(c, tr.ConnJitter(i))
			prev, seen := tr.ConnBaseline(i)
			c.F64(&prev)
			c.Bool(&seen)
			if dec {
				tr.RestoreBaseline(i, prev, seen)
			}
		}

		for p := 0; p < radix; p++ {
			n.walkPort(c, nd, p)
		}

		if !dec {
			mapped = mapped[:0]
			nd.cmap.ForEach(func(in, out routing.VCRef) {
				mapped = append(mapped, [2]routing.VCRef{in, out})
			})
		}
		k := len(mapped)
		c.Count(&k, "channel mappings")
		for i := 0; i < k; i++ {
			var ref [2]routing.VCRef // input, output
			if !dec {
				ref = mapped[i]
			}
			for j := range ref {
				c.Bounded(&ref[j].Port, radix, "mapped port")
				c.Bounded(&ref[j].VC, vcs, "mapped VC")
			}
			if dec {
				if err := nd.cmap.Map(ref[0], ref[1]); err != nil {
					c.Fail(fmt.Errorf("network: checkpoint channel map on node %d: %w", nd.id, err))
				}
			}
		}

		// The metric shard's storage is walked in place.
		counters, gauges, histBuf, histCount, histSum := nd.ms.ExportState()
		c.I64s(counters, "metric counters")
		c.F64s(gauges, "metric gauges")
		c.I64s(histBuf, "histogram buckets")
		c.I64s(histCount, "histogram counts")
		c.F64s(histSum, "histogram sums")

		evs := checkpoint.Slice(c, nd.rec.Events(nil), "flight events")
		for i := range evs {
			ev := &evs[i]
			c.I64(&ev.Cycle)
			c.U16(&ev.Code)
			checkpoint.Word(c, &ev.Node)
			checkpoint.Word(c, &ev.A)
			checkpoint.Word(c, &ev.B)
			c.I64(&ev.Aux)
		}
		total := nd.rec.Total()
		c.I64(&total)
		if dec {
			nd.rec.Reset()
			for _, ev := range evs {
				nd.rec.Record(ev)
			}
			nd.rec.SetTotal(total)
		}
	}

	fired := n.events.Fired()
	checkpoint.Word(c, &fired)
	engineNow := max(n.now-1, 0)
	if dec {
		if err := c.Err(); err != nil {
			return err
		}
		n.events.SetClock(sim.Time(engineNow), fired)
	}

	// The durable journal is a map keyed by engine sequence; encoding
	// writes it in sequence order, and decoding re-inserts it in that
	// order, which reproduces the engine's FIFO tie-breaking.
	var durs []durableEvent
	if !dec {
		durs = make([]durableEvent, 0, len(n.durables))
		for _, ev := range n.durables {
			durs = append(durs, *ev)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i].seq < durs[j].seq })
	}
	durs = checkpoint.Slice(c, durs, "durable events")
	for i := range durs {
		ev := &durs[i]
		c.I64(&ev.at)
		checkpoint.Byte(c, &ev.kind)
		c.I64(&ev.a)
		c.I64(&ev.b)
		if !dec {
			continue
		}
		c.Check("durable event time", int(ev.at), int(engineNow), math.MaxInt)
		c.Check("durable event kind", int(ev.kind), int(durFault), int(durPromote)+1)
		switch ev.kind {
		case durFault:
			c.Check("fault schedule entry", int(ev.a), 0, len(n.faultSchedule))
		case durRestore:
			c.Check("restoring connection", int(ev.a), 0, len(n.conns))
		}
		if err := c.Err(); err != nil {
			return err
		}
		n.scheduleDurable(ev.at, ev.kind, ev.a, ev.b)
	}

	var ids []int64
	if !dec {
		ids = make([]int64, 0, len(n.openRetries))
		for id := range n.openRetries {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	ids = checkpoint.Slice(c, ids, "open retries")
	for i := range ids {
		var or *openRetry
		if dec {
			or = &openRetry{}
		} else {
			or = n.openRetries[ids[i]]
		}
		c.I64(&ids[i])
		c.Bounded(&or.src, nodes, "retry source")
		c.Bounded(&or.dst, nodes, "retry destination")
		walkSpec(c, &or.spec)
		c.Int(&or.attempt)
		if dec {
			n.openRetries[ids[i]] = or
		}
	}
	c.I64(&n.nextOpenID)

	// Tenant owners (connection order, then open-retry order), the quota
	// table, and re-promotion bookkeeping. Tenant usage and degradedLive
	// are not written: decoding recomputes both from the connections, so
	// they can never disagree with them.
	for _, cn := range n.conns {
		c.String(&cn.Tenant)
	}
	for _, id := range ids {
		c.String(&n.openRetries[id].tenant)
	}
	var quotas []string
	if !dec {
		for _, name := range n.tenants.Names() {
			if _, ok := n.tenants.Quota(name); ok {
				quotas = append(quotas, name)
			}
		}
	}
	quotas = checkpoint.Slice(c, quotas, "tenant quotas")
	for i := range quotas {
		q, _ := n.tenants.Quota(quotas[i])
		c.String(&quotas[i])
		c.Int(&q.MaxSessions)
		c.Int(&q.MaxGuaranteed)
		c.Check("tenant session quota", q.MaxSessions, 0, math.MaxInt)
		c.Check("tenant bandwidth quota", q.MaxGuaranteed, 0, math.MaxInt)
		if dec && c.Err() == nil {
			n.tenants.SetQuota(quotas[i], q)
		}
	}
	c.I64(&m.connsPromoted)
	c.I64(&n.promoteGen)

	if err := c.Close(); err != nil || !dec {
		return err
	}

	// Telemetry tenant slots are observability state, not checkpoint
	// payload: re-derive them in conn (= ID) order now that tenant owners
	// are known (assignTrackerSlot ran before they were, so every owner
	// still read as the default tenant).
	for _, cn := range n.conns {
		cn.tenantSlot = n.tenantSlotFor(cn.Tenant)
	}
	// Admission usage is recomputed from the restored connections, so
	// counters and charges can never drift from the sessions they
	// describe. Guaranteed bandwidth is charged while a session holds (or
	// is awaiting restoration of) a guaranteed path; a degraded session
	// holds only its session slot.
	n.degradedLive = 0
	n.tenants.ResetUsage()
	for _, cn := range n.conns {
		if cn.Degraded && !cn.closed {
			n.degradedLive++
		}
		if cn.closed || cn.lost {
			continue
		}
		g := 0
		if cn.open || cn.broken {
			g = n.demandFor(cn.Spec).alloc
		}
		n.tenants.RestoreSession(cn.Tenant, g)
	}
	if err := n.CheckInvariants(); err != nil {
		return fmt.Errorf("network: restored state fails the resource audit: %w", err)
	}
	return nil
}

// walkConn walks one connection record: endpoints, spec, path, lifecycle
// flags, gating state, source and interface queue.
func (n *Network) walkConn(c *checkpoint.Codec, cn *Conn) {
	nodes, radix := len(n.nodes), n.cfg.radix()
	c.Bounded(&cn.Src, nodes, "connection source")
	c.Bounded(&cn.Dst, nodes, "connection destination")
	walkSpec(c, &cn.Spec)
	cn.Path = checkpoint.Slice(c, cn.Path, "path hops")
	for j := range cn.Path {
		c.Bounded(&cn.Path[j].Node, nodes, "hop node")
		c.Bounded(&cn.Path[j].Port, radix, "hop port")
	}
	cn.VCs = checkpoint.Slice(c, cn.VCs, "path VCs")
	for j := range cn.VCs {
		c.Bounded(&cn.VCs[j].Port, radix, "path VC port")
		c.Bounded(&cn.VCs[j].VC, n.cfg.VCs, "path VC")
	}
	cn.Nodes = checkpoint.Slice(c, cn.Nodes, "path nodes")
	for j := range cn.Nodes {
		c.Bounded(&cn.Nodes[j], nodes, "path node")
	}
	c.I64(&cn.SetupTime)
	c.Int(&cn.Backtracks)
	c.Int(&cn.Restores)
	c.Bool(&cn.Degraded)
	c.Bool(&cn.open)
	c.Bool(&cn.closed)
	c.Bool(&cn.broken)
	c.Bool(&cn.lost)
	c.I64(&cn.brokenAt)
	c.I64(&cn.lastTick)
	c.I64(&cn.nextDue)
	c.I64(&cn.nextSeq)
	if c.Decoding() {
		c.Check("connection source tick", int(cn.lastTick), -1, int(n.now))
		// The resource audit walks a live connection's hops in lockstep:
		// one VC and one node per hop plus the destination's.
		if !cn.closed && !cn.broken && !cn.Degraded {
			c.Check("live connection VC count", len(cn.VCs), len(cn.Path)+1, len(cn.Path)+2)
			c.Check("live connection node count", len(cn.Nodes), len(cn.VCs), len(cn.VCs)+1)
		}
	}
	hasSrc := cn.src != nil
	c.Bool(&hasSrc)
	if hasSrc {
		if c.Decoding() {
			// Built against the owning node's RNG; no constructor here
			// draws randomness, so the streams stay aligned until the
			// per-node RNG states are restored.
			if cn.Spec.Class == flit.ClassVBR {
				cn.src = traffic.NewVBRSource(n.nodes[cn.Src].rng, n.cfg.Link, cn.Spec.Rate, cn.Spec.PeakRate, traffic.DefaultGoP())
			} else {
				cn.src = traffic.NewCBRSource(n.cfg.Link, cn.Spec.Rate, 0)
			}
		}
		walkSource(c, cn.src)
	}
	n.walkRing(c, n.nodes[cn.Src], &cn.niQueue, "interface queue")
}

// walkFlow walks one best-effort flow record.
func (n *Network) walkFlow(c *checkpoint.Codec, bf *beFlow) {
	nodes := len(n.nodes)
	checkpoint.Word(c, &bf.id)
	c.Bounded(&bf.src, nodes, "flow source")
	c.Bounded(&bf.dst, nodes, "flow destination")
	checkpoint.Word(c, &bf.conn)
	c.Check("flow owner connection", int(bf.conn), int(flit.InvalidConn), len(n.conns))
	var tag uint8 // 0: Poisson best-effort, 1: CBR (a degraded session's fallback)
	if _, ok := bf.gen.(*traffic.CBRSource); ok {
		tag = 1
	}
	c.U8(&tag)
	if c.Decoding() {
		switch tag {
		case 0:
			// The constructor draws one inter-arrival from the node RNG;
			// the draw is undone when node RNG states are restored, and
			// the state walk reinstates the true next arrival.
			bf.gen = traffic.NewBestEffortSource(n.nodes[bf.src].rng, 1)
		case 1:
			bf.gen = traffic.NewCBRSource(n.cfg.Link, 0, 0)
		default:
			c.Fail(fmt.Errorf("network: checkpoint flow %d has unknown generator tag %d", bf.id, tag))
		}
	}
	walkSource(c, bf.gen)
	c.I64(&bf.lastTick)
	c.I64(&bf.nextDue)
	c.Check("flow source tick", int(bf.lastTick), -1, int(n.now))
	n.walkRing(c, n.nodes[bf.src], &bf.niQueue, "flow interface queue")
}

// walkPort walks one port's state on nd: reserved VCs, buffered flits,
// spent shadow credits and upstream pointers (each a sparse list of
// VCs), admission registers, link-scheduler state, and the outbound
// flit and credit lanes.
func (n *Network) walkPort(c *checkpoint.Codec, nd *node, p int) {
	dec := c.Decoding()
	vcs, depth := n.cfg.VCs, n.cfg.Depth
	mem := nd.mems[p]

	// Reserved and buffered VCs are sparse lists, found while encoding by
	// the memory's status vectors (reserved = InUse, available = Len > 0).
	reserved := mem.ReservedVector()
	k := reserved.Count()
	c.Count(&k, "reserved VCs")
	for i, vc := 0, -1; i < k; i++ {
		if !dec {
			vc = reserved.NextSet(vc + 1)
		}
		c.Bounded(&vc, vcs, "reserved VC")
		st := mem.State(vc)
		serviced := mem.Serviced(vc)
		checkpoint.Word(c, &st.Conn)
		checkpoint.Byte(c, &st.Class)
		c.Int(&st.Allocated)
		c.Int(&st.Peak)
		c.Int(&serviced)
		c.Int(&st.BasePriority)
		c.F64(&st.Bias)
		c.F64(&st.InterArrival)
		c.Int(&st.Output)
		if dec {
			c.Check("VC connection", int(st.Conn), int(flit.InvalidConn), len(n.conns))
			c.Check("VC class", int(st.Class), 0, flit.NumClasses)
			c.Check("VC output port", st.Output, -1, n.cfg.radix())
			st.InUse = true
			mem.RestoreState(vc, *st)
			mem.SetServiced(vc, serviced)
		}
	}

	buffered := mem.FlitsAvailable()
	k = buffered.Count()
	c.Count(&k, "buffered VCs")
	for i, vc := 0, -1; i < k; i++ {
		if !dec {
			vc = buffered.NextSet(vc + 1)
		}
		c.Bounded(&vc, vcs, "buffered VC")
		ln := mem.Len(vc)
		c.Bounded(&ln, depth+1, "buffered flit count")
		for j := 0; j < ln; j++ {
			if !dec {
				n.walkFlit(c, nd, mem.FlitAt(vc, j))
			} else if !mem.Push(vc, n.walkFlit(c, nd, nil)) {
				c.Fail(fmt.Errorf("network: checkpoint overflows VC %d on node %d port %d", vc, nd.id, p))
			}
		}
	}

	credits := nd.shadow[p]
	k = 0
	if !dec {
		for vc := 0; vc < vcs; vc++ {
			if credits.Available(vc) != depth {
				k++
			}
		}
	}
	c.Count(&k, "shadow credits")
	for i, vc := 0, -1; i < k; i++ {
		if !dec {
			for vc++; credits.Available(vc) == depth; vc++ {
			}
		}
		c.Bounded(&vc, vcs, "credited VC")
		avail := credits.Available(vc)
		c.Bounded(&avail, depth+1, "credit count")
		if dec {
			credits.SetAvailable(vc, avail)
		}
	}

	ups := nd.upstream[p]
	k = 0
	if !dec {
		for vc := 0; vc < vcs; vc++ {
			if ups[vc] != noUpstream {
				k++
			}
		}
	}
	c.Count(&k, "upstream refs")
	for i, vc := 0, -1; i < k; i++ {
		if !dec {
			for vc++; ups[vc] == noUpstream; vc++ {
			}
		}
		c.Bounded(&vc, vcs, "upstream VC")
		n.walkUpRef(c, &ups[vc])
	}

	a := nd.alloc[p]
	g, pk, cns := a.Guaranteed(), a.PeakTotal(), a.Connections()
	c.Int(&g)
	c.Int(&pk)
	c.Int(&cns)
	if dec {
		c.Fail(a.RestoreState(g, pk, cns))
	}

	excess, lc := nd.links[p].ExportState()
	c.Int(&excess)
	c.Check("excess VC", excess, -1, vcs)
	c.I64(&lc.Nominated)
	c.I64(&lc.CreditStalled)
	c.I64(&lc.RoundExhausted)
	c.I64(&lc.BiasBoosted)
	if dec {
		nd.links[p].RestoreState(excess, lc)
	}

	pend := checkpoint.Slice(c, nd.pipes[p].pending(), "pipe entries")
	for i := range pend {
		lf := &pend[i]
		c.I64(&lf.arriveAt)
		c.Bounded(&lf.vc, vcs, "pipe VC")
		f := n.walkFlit(c, nd, lf.f)
		if dec {
			nd.pipes[p].push(linkFlit{arriveAt: lf.arriveAt, vc: lf.vc, f: f})
		}
	}

	cpend := checkpoint.Slice(c, nd.credOut[p].pending(), "credit entries")
	for i := range cpend {
		c.I64(&cpend[i].arriveAt)
		n.walkUpRef(c, &cpend[i].to)
		if dec {
			nd.credOut[p].push(cpend[i])
		}
	}
}

// walkUpRef walks a pointer at an upstream buffer slot.
func (n *Network) walkUpRef(c *checkpoint.Codec, r *upRef) {
	node, port, vc := int(r.node), int(r.port), int(r.vc)
	c.Bounded(&node, len(n.nodes), "upstream node")
	c.Bounded(&port, n.cfg.radix(), "upstream port")
	c.Bounded(&vc, n.cfg.VCs, "upstream VC")
	if c.Decoding() {
		*r = upRef{node: int32(node), port: int16(port), vc: int16(vc)}
	}
}

// walkRing walks a flit queue; decoded flits come from nd's pool.
func (n *Network) walkRing(c *checkpoint.Codec, nd *node, q *flit.Ring, what string) {
	k := q.Len()
	c.Count(&k, what)
	for i := 0; i < k; i++ {
		if c.Decoding() {
			q.Push(n.walkFlit(c, nd, nil))
		} else {
			n.walkFlit(c, nd, q.At(i))
		}
	}
}

// walkFlit walks one flit and returns it. Decoding ignores f and draws
// the flit from nd's pool (the node that owns it after restore).
// Probe-carrying packets never appear in the datapath (establishment is
// synchronous); meeting one while encoding is a checkpoint bug.
func (n *Network) walkFlit(c *checkpoint.Codec, nd *node, f *flit.Flit) *flit.Flit {
	dec := c.Decoding()
	if dec {
		f = nd.pool.Get()
	}
	checkpoint.Word(c, &f.Conn)
	checkpoint.Byte(c, &f.Class)
	checkpoint.Byte(c, &f.Type)
	c.I64(&f.Seq)
	c.I64(&f.CreatedAt)
	c.I64(&f.ReadyAt)
	c.I64(&f.HeadAt)
	checkpoint.Word(c, &f.SrcPort)
	checkpoint.Word(c, &f.DstPort)
	checkpoint.Word(c, &f.Src)
	checkpoint.Word(c, &f.Dst)
	if dec {
		c.Check("flit connection", int(f.Conn), int(flit.InvalidConn), len(n.conns))
		c.Check("flit class", int(f.Class), 0, flit.NumClasses)
		c.Check("flit source", int(f.Src), 0, len(n.nodes))
		c.Check("flit destination", int(f.Dst), 0, len(n.nodes))
	}
	hasPkt := f.Packet != nil
	c.Bool(&hasPkt)
	if !hasPkt {
		return f
	}
	if dec {
		f.Packet = nd.pool.GetPacket()
	} else if f.Packet.Probe != nil {
		c.Fail(fmt.Errorf("network: cannot checkpoint a probe-carrying packet (packet %d)", f.Packet.ID))
	}
	pk := f.Packet
	c.I64(&pk.ID)
	checkpoint.Byte(c, &pk.Kind)
	checkpoint.Word(c, &pk.Src)
	checkpoint.Word(c, &pk.Dst)
	c.Int(&pk.Size)
	c.I64(&pk.CreatedAt)
	c.Bool(&pk.WentDown)
	return f
}

// walkRNG walks an RNG stream's state.
func walkRNG(c *checkpoint.Codec, r *sim.RNG) {
	st := r.State()
	checkpoint.Word(c, &st.S0)
	checkpoint.Word(c, &st.S1)
	c.F64(&st.Gauss)
	c.Bool(&st.HaveGauss)
	if c.Decoding() {
		r.Restore(st)
	}
}

// walkAcc walks a running-statistics accumulator.
func walkAcc(c *checkpoint.Codec, a *stats.Accumulator) {
	st := a.State()
	c.I64(&st.N)
	c.F64(&st.Mean)
	c.F64(&st.M2)
	c.F64(&st.Min)
	c.F64(&st.Max)
	if c.Decoding() {
		a.Restore(st)
	}
}

// walkSpec walks a connection spec.
func walkSpec(c *checkpoint.Codec, s *traffic.ConnSpec) {
	checkpoint.Byte(c, &s.Class)
	rate, peak := float64(s.Rate), float64(s.PeakRate)
	c.F64(&rate)
	c.F64(&peak)
	s.Rate, s.PeakRate = traffic.Rate(rate), traffic.Rate(peak)
	c.Int(&s.In)
	c.Int(&s.Out)
	c.Int(&s.Priority)
}

// walkSource walks a traffic source's mutable state. The concrete type
// is implied by the record that owns the source, so none is written.
func walkSource(c *checkpoint.Codec, src traffic.Source) {
	dec := c.Decoding()
	switch s := src.(type) {
	case *traffic.VBRSource:
		st := s.ExportState()
		c.Int(&st.FrameIdx)
		c.Check("VBR frame index", st.FrameIdx, 0, math.MaxInt)
		c.F64(&st.NextFrame)
		c.F64(&st.Backlog)
		c.F64(&st.Acc)
		c.F64(&st.PerCycle)
		if dec {
			s.RestoreState(st)
		}
	case *traffic.CBRSource:
		st := s.ExportState()
		c.F64(&st.PerCycle)
		c.F64(&st.Acc)
		if dec {
			s.RestoreState(st)
		}
	case *traffic.BestEffortSource:
		st := s.ExportState()
		c.F64(&st.Rate)
		c.F64(&st.Next)
		if dec {
			s.RestoreState(st)
		}
	default:
		c.Fail(fmt.Errorf("network: unserializable traffic source %T", src))
	}
}

// quiesce applies every lazy catch-up the gated datapath has deferred —
// round-boundary resets for idle routers, source ticks across elided
// cycles — so the encoded state is canonical: a gated and an ungated
// run of the same fabric checkpoint to identical bytes. Each catch-up
// is exactly what the node would perform on its next active cycle, so
// quiescing is unobservable to the continuing simulation.
func (n *Network) quiesce() error {
	if n.now == 0 {
		return nil
	}
	t := n.now - 1
	round := t / int64(n.cfg.K*n.cfg.VCs)
	for _, nd := range n.nodes {
		if nd.lastRound != round {
			nd.lastRound = round
			for _, ls := range nd.links {
				ls.OnRoundBoundary()
			}
		}
	}
	for _, c := range n.conns {
		if !c.open || c.src == nil {
			continue
		}
		if err := catchUpSource(c.src, &c.lastTick, t); err != nil {
			return fmt.Errorf("network: connection %d %w", c.ID, err)
		}
	}
	for i, bf := range n.beFlows {
		if err := catchUpSource(bf.gen, &bf.lastTick, t); err != nil {
			return fmt.Errorf("network: best-effort flow %d %w", i, err)
		}
	}
	return nil
}

// catchUpSource ticks src across the cycles after *lastTick up to t that
// a gated engine elided, and advances *lastTick to t. The forecast
// contract guarantees elided cycles carry no emissions and no RNG draws;
// a tick that emits indicates a forecast bug and is reported.
func catchUpSource(src traffic.Source, lastTick *int64, t int64) error {
	for ct := *lastTick + 1; ct <= t; ct++ {
		if k := src.Tick(ct); k != 0 {
			return fmt.Errorf("was due %d flits during elided cycle %d", k, ct)
		}
	}
	*lastTick = t
	return nil
}

// SaveCheckpoint atomically writes the fabric state to path, sealed in
// the versioned, checksummed checkpoint envelope under this network's
// configuration hash.
func (n *Network) SaveCheckpoint(path string) error {
	payload, err := n.EncodeState()
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, n.ConfigHash(), payload)
}

// RestoreCheckpoint builds a fresh network for cfg and restores the
// checkpoint at path into it. cfg must describe the same fabric the
// checkpoint was taken from (enforced via the envelope's config hash);
// Workers and NoIdleSkip are free to differ — restores are bit-exact
// across both.
func RestoreCheckpoint(cfg Config, path string) (*Network, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	payload, err := checkpoint.ReadFile(path, n.ConfigHash())
	if err != nil {
		return nil, err
	}
	if err := n.RestoreState(payload); err != nil {
		return nil, err
	}
	return n, nil
}

// ConfigHash returns the FNV-1a hash of everything about the
// configuration that determines simulation behaviour: topology wiring,
// link geometry, buffering, scheduling scheme and policies, and the
// seed. Workers, Shards, and NoIdleSkip are deliberately excluded —
// they select an execution strategy, not a simulation, and checkpoints
// restore bit-exactly across them.
func (n *Network) ConfigHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	cfg := &n.cfg
	tp := cfg.Topology
	mix(uint64(tp.Nodes))
	mix(uint64(tp.Ports))
	mix(uint64(len(tp.Links)))
	for _, l := range tp.Links {
		mix(uint64(l.A))
		mix(uint64(l.APort))
		mix(uint64(l.B))
		mix(uint64(l.BPort))
	}
	mix(math.Float64bits(float64(cfg.Link.Bandwidth)))
	mix(uint64(cfg.Link.FlitBits))
	mix(uint64(cfg.Link.PhitBits))
	mix(uint64(cfg.VCs))
	mix(uint64(cfg.Depth))
	mix(uint64(cfg.K))
	mix(uint64(cfg.MaxCandidates))
	mixStr(fmt.Sprintf("%T", cfg.Scheme))
	mix(uint64(cfg.ArbiterIters))
	mix(uint64(cfg.LinkDelay))
	mix(uint64(cfg.HopLatency))
	mix(math.Float64bits(cfg.Concurrency))
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mixBool(cfg.EnforceAllocations)
	mix(cfg.Seed)
	mixBool(cfg.Fault.Restore)
	mix(uint64(cfg.Fault.MaxRetries))
	mix(uint64(cfg.Fault.RetryBackoff))
	mixBool(cfg.Fault.Degrade)
	mixBool(cfg.Fault.Paranoid)
	// Route changes establishment decisions, so it is part of the
	// simulated configuration. Mixed only when non-minimal: every
	// checkpoint written before the mode existed hashes as RouteMinimal.
	if cfg.Route != routing.RouteMinimal {
		mixStr("route")
		mix(uint64(cfg.Route))
	}
	// Promote changes which establishments run, so it is simulated
	// configuration too. Mixed only when disabled: it defaults on, and
	// every checkpoint written before the knob existed hashes as enabled.
	if !cfg.Fault.Promote {
		mixStr("nopromote")
	}
	return h
}

// QuiesceProbes steps the fabric until no establishment probe is in
// flight and every pending event sits in the durable journal, bounded by
// limit cycles — the preamble a live checkpoint needs when sessions are
// still being set up. Probes resolve in bounded time (each advances or
// backtracks every HopLatency cycles and the search space is finite), so
// a limit of a few HopLatency × fabric-diameter × probes cycles is ample.
func (n *Network) QuiesceProbes(limit int64) error {
	deadline := n.now + limit
	for n.activeProbes > 0 || n.events.Pending() != len(n.durables) {
		if n.now >= deadline {
			return fmt.Errorf("network: %d probes and %d non-durable events still in flight after %d quiesce cycles",
				n.activeProbes, n.events.Pending()-len(n.durables), limit)
		}
		n.Step()
	}
	return nil
}
