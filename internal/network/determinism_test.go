package network

import (
	"reflect"
	"testing"

	"mmr/internal/faults"
	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// detScenario runs the same loaded 4×4-mesh session at a given worker
// count and returns everything observable: the statistics snapshot and
// the session event log. The workload exercises every RNG consumer the
// parallel phases touch — CBR and VBR stream sources, Poisson best-effort
// flows, packet VC selection — and, with faults on, link failures with
// restoration plus per-flit impairment draws.
func detScenario(t *testing.T, workers int, withFaults bool) (*Stats, []SessionEvent) {
	t.Helper()
	n := buildDetNetwork(t, workers, withFaults)
	defer n.Shutdown()
	n.Run(1200)
	n.ResetStats()
	n.Run(1800)
	return n.Stats(), n.SessionEvents()
}

// buildDetNetwork constructs the detScenario network — loaded 4×4 mesh,
// 48 connections, best-effort flows, optional fault plan — without
// running it, so tests needing a live network handle (metrics,
// flight-recorder) share the exact same scenario.
func buildDetNetwork(t testing.TB, workers int, withFaults bool) *Network {
	t.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 11
	cfg.Workers = workers
	cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 4, RetryBackoff: 32, Degrade: true, Paranoid: true}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := sim.NewRNG(99)
	opened := 0
	for i := 0; i < 300 && opened < 48; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		spec := traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]}
		if i%3 == 0 {
			spec.Class = flit.ClassVBR
			spec.PeakRate = 2 * spec.Rate
		}
		if _, err := n.Open(src, dst, spec); err == nil {
			opened++
		}
	}
	if opened < 16 {
		t.Fatalf("only %d connections established", opened)
	}
	for i := 0; i < 12; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.AddBestEffortFlow(src, dst, 0.01)
		}
	}

	if withFaults {
		plan := faults.NewPlan(3).
			FailLinkAt(500, 5, 1).
			RestoreLinkAt(1500, 5, 1).
			FailRouterAt(900, 10).
			RestoreRouterAt(1900, 10).
			Impair(1, 1, 0.01, 0.005).
			Impair(6, 2, 0.02, 0)
		if err := n.ApplyPlan(plan, 3000); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestNetworkStepDeterminism: the parallel cycle is bit-identical for
// every worker count — statistics (including floating-point accumulator
// state, compared exactly by reflect.DeepEqual) and the session event log
// must match the serial run, with and without an active fault plan.
func TestNetworkStepDeterminism(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "clean"
		if withFaults {
			name = "faults"
		}
		t.Run(name, func(t *testing.T) {
			refStats, refEvents := detScenario(t, 1, withFaults)
			if refStats.FlitsDelivered == 0 || refStats.BEDelivered == 0 {
				t.Fatalf("degenerate scenario: %v", refStats)
			}
			if withFaults && refStats.ConnsBroken == 0 {
				t.Fatal("fault scenario broke no connections")
			}
			for _, w := range []int{2, 4, 8} {
				st, ev := detScenario(t, w, withFaults)
				if !reflect.DeepEqual(refStats, st) {
					t.Errorf("workers=%d diverged from serial:\nserial:  %+v\nworkers: %+v", w, refStats, st)
				}
				if !reflect.DeepEqual(refEvents, ev) {
					t.Errorf("workers=%d session log diverged (%d vs %d events)", w, len(refEvents), len(ev))
				}
			}
		})
	}
}

// TestSetWorkersMidRun: resizing the pool between steps neither leaks
// goroutines nor changes results — a session stepped 1→4→2→1 workers
// matches the all-serial run exactly.
func TestSetWorkersMidRun(t *testing.T) {
	run := func(resize bool) *Stats {
		tp, _ := topology.Mesh(3, 3, 4)
		cfg := DefaultConfig(tp)
		cfg.Seed = 5
		n, _ := New(cfg)
		defer n.Shutdown()
		for i := 0; i < 5; i++ {
			n.Open(i, 8-i, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps})
		}
		n.AddBestEffortFlow(0, 8, 0.01)
		for seg, w := range []int{1, 4, 2, 1} {
			if resize {
				n.SetWorkers(w)
			}
			_ = seg
			n.Run(2000)
		}
		return n.Stats()
	}
	a, b := run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker resizing changed results:\nserial: %+v\nresized: %+v", a, b)
	}
}

// TestNetworkStepSteadyStateAllocs: the warmed-up cycle allocates nothing
// per step at any worker count — flits come from per-node pools, lanes
// and rings reuse their backing arrays, and the worker dispatch path is
// allocation-free. (Staging-lane growth is amortized: the warmup runs
// every lane past its high-water mark, after which pushes reuse capacity;
// testing.AllocsPerTest-style averaging over 400 cycles tolerates the
// rare residual growth event while still failing on any per-cycle
// allocation.)
func TestNetworkStepSteadyStateAllocs(t *testing.T) {
	for _, w := range []int{1, 4} {
		tp, _ := topology.Mesh(4, 4, 4)
		cfg := DefaultConfig(tp)
		cfg.Seed = 7
		cfg.Workers = w
		n, _ := New(cfg)
		rng := sim.NewRNG(42)
		for i, opened := 0, 0; i < 400 && opened < 64; i++ {
			src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
			if src == dst {
				continue
			}
			rate := traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
			if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}); err == nil {
				opened++
			}
		}
		for i := 0; i < 16; i++ {
			src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
			if src != dst {
				n.AddBestEffortFlow(src, dst, 0.02)
			}
		}
		n.Run(3000) // past every pool/lane/ring high-water mark
		avg := testing.AllocsPerRun(400, func() { n.Step() })
		n.Shutdown()
		if avg > 0.05 {
			t.Errorf("workers=%d: steady-state Step allocates %.3f allocs/cycle, want 0", w, avg)
		}
	}
}
