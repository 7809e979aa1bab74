package network

import (
	"fmt"
	"runtime"
	"testing"

	"mmr/internal/flit"
	"mmr/internal/sim"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// benchNet builds the steady-state workload BenchmarkNetworkStep measures:
// a 4×4 mesh (16 routers) carrying EPB-established CBR connections between
// random host pairs plus Poisson best-effort background flows, warmed past
// its allocation high-water mark. The scenario is fixed-seed so the pre-pr
// and current sections of BENCH_PR3.json measure the same traffic.
func benchNet(b *testing.B) *Network {
	b.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 7
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(42)
	opened := 0
	for i := 0; i < 400 && opened < 96; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		rate := traffic.PaperRates[rng.Intn(len(traffic.PaperRates))]
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: rate}); err == nil {
			opened++
		}
	}
	if opened < 32 {
		b.Fatalf("benchNet: only %d connections established", opened)
	}
	for i := 0; i < 32; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src != dst {
			n.AddBestEffortFlow(src, dst, 0.02)
		}
	}
	n.Run(2000) // steady state: queues, lanes and pools at high water
	return n
}

// BenchmarkNetworkStep measures one serial network cycle of the loaded
// 16-router mesh. Gated by make bench-check against BENCH_PR3.json.
func BenchmarkNetworkStep(b *testing.B) {
	n := benchNet(b)
	defer n.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkStepParallel measures the same cycle sharded across the
// worker pool, at the scaling points the ISSUE's acceptance criterion
// names (≥2× at 4 workers vs the serial pre-pr baseline).
func BenchmarkNetworkStepParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			n := benchNet(b)
			defer n.Shutdown()
			n.SetWorkers(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkNetworkStepScaling is the honest multi-core scaling curve:
// the same loaded mesh stepped at w=1 (serial reference) and the
// paper-relevant worker widths, plus GOMAXPROCS when it is a width of
// its own. `make bench-scale-check` feeds this family to benchjson
// -scale, which gates parallel efficiency eff(w) = ns(1)/(ns(w)·w)
// for every width the host can actually exercise and marks the rest
// informational — so a 1-CPU container reports barrier overhead as
// barrier overhead instead of silently passing a fake scaling gate.
func BenchmarkNetworkStepScaling(b *testing.B) {
	widths := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		widths = append(widths, g)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			n := benchNet(b)
			defer n.Shutdown()
			n.SetWorkers(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// benchNetSparse builds the ~10%-load scenario BenchmarkNetworkStepSparse
// measures: the same 4×4 mesh with a handful of slow CBR connections and
// one trickle best-effort flow, so most nodes are idle on most cycles —
// the regime activity gating targets.
func benchNetSparse(b *testing.B, noIdleSkip bool) *Network {
	b.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 7
	cfg.NoIdleSkip = noIdleSkip
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(42)
	opened := 0
	for i := 0; i < 400 && opened < 10; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 16 * traffic.Mbps}); err == nil {
			opened++
		}
	}
	if opened < 10 {
		b.Fatalf("benchNetSparse: only %d connections established", opened)
	}
	n.AddBestEffortFlow(0, 15, 0.002)
	n.Run(2000)
	return n
}

// BenchmarkNetworkStepSparse measures one cycle of the ~10%-load mesh
// with activity gating on (the default): most ports and nodes are
// skipped without touching their memories. Gated by make
// bench-sparse-check against BENCH_PR5.json.
func BenchmarkNetworkStepSparse(b *testing.B) {
	n := benchNetSparse(b, false)
	defer n.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkStepSparseNoSkip is the ungated reference for the same
// workload — the denominator of the ISSUE's ≥3× sparse-speedup criterion.
func BenchmarkNetworkStepSparseNoSkip(b *testing.B) {
	n := benchNetSparse(b, true)
	defer n.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkRunIdleGaps measures bursty traffic with long idle
// stretches driven through Run, where whole-clock fast-forward elides the
// empty cycles entirely: a few very slow connections mean thousands of
// cycles pass between flits. Reported per simulated cycle via Run(10000)
// iterations normalized by b.N — gating makes each iteration's cost
// proportional to events, not cycles.
func BenchmarkNetworkRunIdleGaps(b *testing.B) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 7
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Shutdown()
	rng := sim.NewRNG(42)
	for opened, i := 0, 0; i < 200 && opened < 4; i++ {
		src, dst := rng.Intn(tp.Nodes), rng.Intn(tp.Nodes)
		if src == dst {
			continue
		}
		if _, err := n.Open(src, dst, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 2 * traffic.Mbps}); err == nil {
			opened++
		}
	}
	// One full-length warm iteration: a 10k-cycle window grows lanes and
	// scratch past what the 2k-cycle warmup reaches, and the timed loop
	// must start at the allocation high-water mark (the gate requires
	// 0 allocs/op even at -benchtime 1x).
	n.Run(12_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(10_000)
	}
}

// BenchmarkCheckpoint measures one checkpoint save (EncodeState) and one
// restore (RestoreState into a freshly built fabric; the build is not
// timed) of the fault-plan determinism scenario at cycle 1200.
func BenchmarkCheckpoint(b *testing.B) {
	n := buildDetNetwork(b, 1, true)
	defer n.Shutdown()
	n.Run(1200)
	snap, err := n.EncodeState()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			if _, err := n.EncodeState(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := New(detConfig(b, 1, false))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := m.RestoreState(snap); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			m.Shutdown()
			b.StartTimer()
		}
	})
}
