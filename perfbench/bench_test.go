package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"mmr/internal/network"
	"mmr/internal/sim"
	"mmr/internal/topology"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	q := tail(seq(1000), 0.99)
	if q.Rank != "p99" || q.Value != 990 || q.N != 1000 {
		t.Fatalf("1000 samples: got %+v, want p99 = 990", q)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Fatalf("beyond(1000, 0.99) = %d, want 10", b)
	}
	q = tail(seq(999), 0.99)
	if q.Rank != "max" || q.Value != 999 {
		t.Fatalf("999 samples: got %+v, want the max (too few samples beyond p99)", q)
	}
	q = tail(seq(100), 0.5)
	if q.Rank != "p50" || q.Value != 50 {
		t.Fatalf("p50 of 100: got %+v", q)
	}
	if q := tail(nil, 0.99); q.N != 0 || q.Rank != "max" {
		t.Fatalf("empty: got %+v", q)
	}
	if q := tail([]float64{1, math.Inf(1)}, 0.99); !math.IsInf(q.Value, 1) {
		t.Fatalf("a failed request (+Inf) must reach the tail, got %+v", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m.Value != 2 || m.N != 3 {
		t.Fatalf("odd median: %+v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m.Value != 2.5 {
		t.Fatalf("even median: %+v", m)
	}
	if m := median(nil); m.N != 0 || m.Value != 0 {
		t.Fatalf("empty median: %+v", m)
	}
}

// spansOf builds a trace from (layer, start, end, parent, lane) rows.
func spansOf(rows ...[5]any) *tracer {
	tr := &tracer{}
	for _, r := range rows {
		tr.spans = append(tr.spans, span{Layer: r[0].(string), Start: int64(r[1].(int)), End: int64(r[2].(int)),
			Parent: r[3].(int), Lane: r[4].(int)})
	}
	return tr
}

func TestSelfTimeArithmetic(t *testing.T) {
	tr := spansOf(
		[5]any{otherLayer, 0, 100, -1, 0}, // 0: lane root
		[5]any{"router", 10, 40, 0, 0},    // 1
		[5]any{"traffic", 15, 20, 1, 0},   // 2: inside 1
		[5]any{"router", 30, 60, 0, 0},    // 3: overlaps 1 — the union counts once
		[5]any{"metrics", 55, 120, 3, 0},  // 4: runs past its parent — clipped
	)
	self := selfTimes(tr.spans)
	want := []int64{100 - 50, 30 - 5, 5, 30 - 5, 65}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, self[i], want[i])
		}
	}
	if got := covered(tr.spans[0], tr.spans, []int{1, 3}); got != 50 {
		t.Errorf("union of [10,40) and [30,60) = %d, want 50", got)
	}
}

func TestAttributionRowsSumToLaneTime(t *testing.T) {
	tr := spansOf(
		[5]any{otherLayer, 0, 100, -1, 0},
		[5]any{"exp", 0, 80, 0, 0},
		[5]any{"router", 10, 70, 1, 0},
		[5]any{otherLayer, 20, 100, -1, 1},
		[5]any{"exp", 20, 90, 3, 1},
		[5]any{"router", 25, 85, 4, 1},
	)
	a := tr.attribution()
	var rows int64
	for _, r := range a.Rows {
		rows += r.Self
	}
	if a.Lanes != 2 || a.Total != 180 || a.Wall != 100 || rows != a.Total {
		t.Fatalf("lanes=%d total=%d wall=%d rows=%d, want 2/180/100 and rows == total", a.Lanes, a.Total, a.Wall, rows)
	}
	if f := a.selfFrac("router"); f != 120.0/180 {
		t.Fatalf("router self frac %v, want %v", f, 120.0/180)
	}
	if f := a.selfFrac(otherLayer); f != 30.0/180 {
		t.Fatalf("other self frac %v, want %v", f, 30.0/180)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("router", "router.run", -1, 0, 0)
	tr.end(s)
	if s != -1 {
		t.Fatalf("nil tracer returned span %d", s)
	}
}

func TestDigesterSeesEveryBit(t *testing.T) {
	a, b := newDigester(), newDigester()
	a.f64(1.0)
	b.f64(math.Nextafter(1.0, 2))
	if a.sum() == b.sum() {
		t.Fatal("digests of adjacent floats collide")
	}
	c, d := newDigester(), newDigester()
	c.str("ab")
	c.str("c")
	d.str("a")
	d.str("bc")
	if c.sum() == d.sum() {
		t.Fatal("digest does not delimit strings")
	}
}

// The fabric digest — Stats plus the final EncodeState — must repeat on
// a rebuilt fabric and survive a checkpoint round trip.
func TestFabricDigestStable(t *testing.T) {
	digest := func() (string, []byte, network.Config) {
		tp, err := topology.Mesh(2, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := network.DefaultConfig(tp)
		n, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Shutdown()
		if _, err := n.AddBestEffortFlow(0, 3, 0.05); err != nil {
			t.Fatal(err)
		}
		n.Run(500)
		f := &fabricRun{cfg: cfg, parent: -1}
		d, _, err := f.finish(n)
		if err != nil {
			t.Fatal(err)
		}
		state, err := n.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		return d, state, cfg
	}
	d1, state, cfg := digest()
	d2, _, _ := digest()
	if d1 != d2 {
		t.Fatalf("same fabric, different digests: %s vs %s", d1, d2)
	}
	f := &fabricRun{cfg: cfg, parent: -1}
	n, err := f.restore(state, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	d3, _, err := f.finish(n)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("restored fabric digest %s differs from the original %s", d3, d1)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "network.open_us.p99", "daemon.p99_ms.r50", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "p99@50", "a b", "ms/s", string(long)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "bytes"} {
		if !validUnit(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	if validUnit("per second") {
		t.Error("unit with a space accepted")
	}
}

func TestParseSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseSpec(b)
	if err != nil {
		t.Fatalf("the repository's BENCHMARK.json: %v", err)
	}
	if spec.endToEnd[0].Name == "" || len(spec.perLayer) == 0 {
		t.Fatal("empty metric lists")
	}
	hasSetup := false
	for _, d := range spec.endToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Fatal("BENCHMARK.json lacks setup_s")
	}
	for name, doc := range map[string]string{
		"duplicate": `{"end_to_end":[{"name":"a","unit":"s","better":"lower","bound":0.1}],"per_layer":[{"name":"a","unit":"s","better":"lower"}]}`,
		"bad name":  `{"end_to_end":[{"name":"a@b","unit":"s","better":"lower","bound":0.1}],"per_layer":[{"name":"b","unit":"s","better":"lower"}]}`,
		"bound":     `{"end_to_end":[{"name":"a","unit":"s","better":"lower","bound":0.3}],"per_layer":[{"name":"b","unit":"s","better":"lower"}]}`,
		"direction": `{"end_to_end":[{"name":"a","unit":"s","better":"up","bound":0.1}],"per_layer":[{"name":"b","unit":"s","better":"lower"}]}`,
	} {
		if _, err := parseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted %s", name, doc)
		}
	}
}

func TestShapeMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := shapeMetrics(defs, map[string]float64{"a": 1}, true); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := shapeMetrics(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, true); err == nil {
		t.Error("unlisted metric accepted")
	}
	if _, err := shapeMetrics(defs, map[string]float64{"a": 1, "b": 0}, true); err == nil {
		t.Error("zero end-to-end metric accepted")
	}
	m, err := shapeMetrics(defs, map[string]float64{"a": 1, "b": 0}, false)
	if err != nil || m["b"].Unit != "ms" {
		t.Errorf("per-layer zero: %v %v", m, err)
	}
}

func TestRecorded(t *testing.T) {
	rec, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-fig5", "fabric-dense", "fabric-churn"} {
		if len(rec.Digests[w]) != seedVariants[w] {
			t.Errorf("%s: %d recorded digests, want one per seed variant", w, len(rec.Digests[w]))
		}
		for _, d := range rec.Digests[w] {
			if len(d) != 32 {
				t.Errorf("%s: malformed digest %q", w, d)
			}
		}
	}
	rates, counts, ref := ladder(rec, 25)
	if ref < 0 || rates[ref] != rec.Daemon.ReferenceRPS {
		t.Fatalf("reference rate %v not on the ladder %v", rec.Daemon.ReferenceRPS, rates)
	}
	if counts[ref] < 1000 {
		t.Errorf("reference rung of %d requests cannot back a p99", counts[ref])
	}
}

func TestCountCPUList(t *testing.T) {
	for s, want := range map[string]int{"0": 1, "0-1": 2, "0-3,6": 5, "x": 0} {
		if got := countCPUList(s); got != want {
			t.Errorf("countCPUList(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestChurnModifyBandwidth runs the fabric-churn unit with rate
// renegotiation on, as the workload should. It fails today on seed 38,
// the one seed of 1–40 that hits the defect:
// ModifyBandwidth on a gated fabric retunes a CBR source that still owes
// catch-up ticks for elided cycles, so the next kill+restore checkpoint
// refuses to encode ("connection N was due 1 flits during elided cycle
// C"). The workload leaves ModifyBandwidth out until the program is
// fixed; this test is the reproducer.
func TestChurnModifyBandwidth(t *testing.T) {
	const seed = 38
	cfg, s0, err := churnSetup(seed, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := churnUnit(&fabricRun{cfg: cfg, s0: s0, parent: -1}, seed, churnModifyP); err != nil {
		t.Fatal(err)
	}
}

// TestLoadGenAgainstFakeDaemon drives one rung of the open-loop
// generator against a stand-in for the daemon's API, from both lanes at
// once (run it with -race): every request completes, latencies count
// from the due time, and the mix's session pool stays consistent.
func TestLoadGenAgainstFakeDaemon(t *testing.T) {
	var mu sync.Mutex
	next := 100
	open := map[int]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/api/open":
			next++
			open[next] = true
			fmt.Fprintf(w, `{"conn":%d}`, next)
		case "/api/close":
			var req struct{ Conn int }
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || !open[req.Conn] {
				http.Error(w, "unknown connection", http.StatusNotFound)
				return
			}
			delete(open, req.Conn)
			fmt.Fprint(w, `{}`)
		case "/api/modify", "/api/query":
			fmt.Fprint(w, `{}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	g := &loadGen{p: &daemonProc{base: srv.URL}, preload: []int{1, 2, 3},
		clients: []*http.Client{srv.Client(), srv.Client()}}
	var id int64
	g.rung(0, 1000, 400, sim.NewRNG(7), &id)
	if len(g.samples) != 400 || id != 400 {
		t.Fatalf("%d samples for %d requests", len(g.samples), id)
	}
	for _, s := range g.samples {
		if s.failed || !s.ok || s.latMs < s.lagMs || s.lagMs < 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if g.opened-g.closed != len(g.churn) || len(open) != len(g.churn) || len(g.churn) > daemonChurnCap {
		t.Fatalf("opened %d, closed %d, pool %d, server holds %d", g.opened, g.closed, len(g.churn), len(open))
	}
}
