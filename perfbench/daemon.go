package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mmr/internal/metrics"
	"mmr/internal/network"
	"mmr/internal/sim"
	"mmr/internal/topology"
)

// daemon-open-loop: `mmrnet -serve` runs as a child process — a
// free-running 4×4 mesh preloaded with long-lived sessions, with
// periodic checkpoints — and the benchmark drives it with an open-loop
// Poisson mix of open, close, modify and query requests over a fixed
// ladder of rates. Requests are timed from the instant they were due,
// so a stall that delays later requests counts against them.

const (
	daemonLanes      = 2      // client connections, capped at nproc
	daemonPreload    = 48     // long-lived sessions opened in set-up
	daemonChurnCap   = 8      // sessions the request mix holds open at most
	daemonCkptEvery  = 500000 // cycles between the daemon's periodic checkpoints
	daemonReadyWait  = 30 * time.Second
	daemonDrainWait  = 30 * time.Second
	daemonReqTimeout = 15 * time.Second
	daemonRefShare   = 0.8 // share of the measured phase spent at the reference rate
	daemonDrainLimit = 512 // drain cycle budget of a close: one daemon slice
	// daemonFabricSeed is the daemon's simulation seed. The fabric is part
	// of the workload's fixed configuration, like its preload; the
	// workload seed drives the request stream.
	daemonFabricSeed = 1
	// daemonOverheadReqs is the size of the traced run's untraced
	// reference pass.
	daemonOverheadReqs = 200
)

var listenRE = regexp.MustCompile(`daemon serving the control API on http://(\S+) `)

// daemonProc is one running daemon child.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	ckpt   string
	stdout bytes.Buffer
	mu     sync.Mutex // guards stdout while the child runs
	waited chan error
	client *http.Client
}

func startDaemon(rc runConfig, dir string) (*daemonProc, error) {
	ckpt := filepath.Join(dir, "daemon.ckpt")
	cmd := exec.Command(rc.mmrnet, "-serve", "-serve-addr", "127.0.0.1:0",
		"-topo", "mesh", "-w", "4", "-h", "4", "-seed", strconv.Itoa(daemonFabricSeed),
		"-checkpoint", ckpt, "-checkpoint-interval", strconv.Itoa(daemonCkptEvery), "-net-workers", "1")
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The child must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &daemonProc{cmd: cmd, ckpt: ckpt, waited: make(chan error, 1),
		client: &http.Client{Timeout: daemonReqTimeout}}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the daemon: %w", err)
	}
	addr := make(chan string, 1)
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		defer pipes.Done()
		buf := make([]byte, 4096)
		for {
			k, err := stdout.Read(buf)
			p.mu.Lock()
			p.stdout.Write(buf[:k])
			p.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	go func() {
		pipes.Wait() // Wait must not run before the pipes are drained
		p.waited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case err := <-p.waited:
		p.waited <- err
		return nil, fmt.Errorf("the daemon exited before serving: %v", err)
	case <-time.After(daemonReadyWait):
		p.kill()
		return nil, fmt.Errorf("the daemon did not start serving within %v", daemonReadyWait)
	}
}

// kill stops a daemon that is being abandoned on an error path.
func (p *daemonProc) kill() {
	p.cmd.Process.Kill()
	err := <-p.waited
	p.waited <- err
}

// drain sends SIGTERM and requires a graceful exit 0 with a final
// checkpoint, whose restored fabric must pass the resource audit and
// hold exactly the sessions the daemon reported open.
func (p *daemonProc) drain(wantOpen int) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.waited:
		p.waited <- err
		if err != nil {
			return incorrect("daemon did not drain to exit 0 on SIGTERM: %v", err)
		}
	case <-time.After(daemonDrainWait):
		p.kill()
		return incorrect("daemon did not exit within %v of SIGTERM", daemonDrainWait)
	}
	p.mu.Lock()
	report := p.stdout.String()
	p.mu.Unlock()
	m := regexp.MustCompile(`drained at cycle (\d+): (\d+) connections still open`).FindStringSubmatch(report)
	if m == nil {
		return incorrect("daemon drain report missing: %q", report)
	}
	if open, _ := strconv.Atoi(m[2]); open != wantOpen {
		return incorrect("daemon drained with %d sessions open, the benchmark holds %d", open, wantOpen)
	}
	n, err := restoreDaemonCheckpoint(p.ckpt)
	if err != nil {
		return incorrect("daemon final checkpoint: %v", err)
	}
	defer n.Shutdown()
	if err := n.CheckInvariants(); err != nil {
		return incorrect("daemon final checkpoint fails the resource audit: %v", err)
	}
	if got := countOpen(n); got != wantOpen {
		return incorrect("daemon final checkpoint holds %d open sessions, want %d", got, wantOpen)
	}
	return nil
}

// restoreDaemonCheckpoint restores the daemon's checkpoint into a fabric
// built from the configuration `mmrnet -serve` derives from the flags
// startDaemon passes.
func restoreDaemonCheckpoint(path string) (*network.Network, error) {
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		return nil, err
	}
	cfg := network.DefaultConfig(tp)
	cfg.Seed = daemonFabricSeed
	cfg.Workers = 1
	return network.RestoreCheckpoint(cfg, path)
}

// call issues one request and classifies the answer. An admission
// refusal (409) is an answer; transport errors, timeouts, 4xx other than
// 409 and every 5xx — shed 503s included — are failures.
func call(c *http.Client, method, url string, body any, out any) (ok, failed bool, code int) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return false, true, 0
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return false, true, 0
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, true, 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, true, resp.StatusCode
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if out != nil && json.Unmarshal(data, out) != nil {
			return false, true, resp.StatusCode
		}
		return true, false, resp.StatusCode
	case resp.StatusCode == http.StatusConflict:
		return false, false, resp.StatusCode
	default:
		return false, true, resp.StatusCode
	}
}

type daemonStatus struct {
	Cycle         int64 `json:"cycle"`
	ConnsOpen     int   `json:"conns_open"`
	SetupAttempts int64 `json:"setup_attempts"`
	SetupAccepted int64 `json:"setup_accepted"`
	SetupRejected int64 `json:"setup_rejected"`
	SetupRetries  int64 `json:"setup_retries"`
	Closed        int64 `json:"closed"`
	QueueDepth    int   `json:"queue_depth"`
}

func (p *daemonProc) status() (*daemonStatus, error) {
	var st daemonStatus
	if ok, _, code := call(p.client, http.MethodGet, p.base+"/api/status", nil, &st); !ok {
		return nil, fmt.Errorf("/api/status answered %d", code)
	}
	return &st, nil
}

// openReq is the daemon's /api/open body. no_retry makes a refusal an
// immediate answer instead of a journaled backoff and a best-effort
// fallback.
type openReq struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	RateMbps float64 `json:"rate_mbps"`
	NoRetry  bool    `json:"no_retry"`
}

type openResp struct {
	Conn int `json:"conn"`
}

// The preloaded sessions run at daemonRateMbps, and modify requests
// retune them within 10% of it; the sessions the mix opens run at
// daemonChurnMbps. The preload's fixed pattern then carries most of the
// fabric's load and contention whatever the seed, so a cycle costs the
// same and the simulated delay and jitter describe the same fabric.
const (
	daemonRateMbps  = 20
	daemonChurnMbps = 5
)

func randomOpen(rng *sim.RNG) openReq {
	src, dst := rng.Intn(16), rng.Intn(16)
	if src == dst {
		dst = (dst + 1) % 16
	}
	return openReq{Src: src, Dst: dst, RateMbps: daemonChurnMbps, NoRetry: true}
}

// daemonSetup starts a daemon and opens the preloaded sessions.
func daemonSetup(rc runConfig, dir string) (*daemonProc, []int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	p, err := startDaemon(rc, dir)
	if err != nil {
		return nil, nil, err
	}
	// The preload is a fixed pattern, each router the source of three
	// sessions at shifts 1, 6 and 11 along the node order, so every seed
	// starts from the same fabric load; the seed drives the requests.
	var conns []int
	for i := 0; i < daemonPreload; i++ {
		src := i % 16
		req := openReq{Src: src, Dst: (src + 1 + 5*(i/16)) % 16, RateMbps: daemonRateMbps, NoRetry: true}
		var r openResp
		ok, failed, code := call(p.client, http.MethodPost, p.base+"/api/open", req, &r)
		if failed {
			p.kill()
			return nil, nil, fmt.Errorf("preloading session %d: status %d", i, code)
		}
		if ok {
			conns = append(conns, r.Conn)
		}
	}
	return p, conns, nil
}

// reqKind is one request type of the mix.
type reqKind int

const (
	kindOpen reqKind = iota
	kindClose
	kindModify
	kindQuery
	numKinds
)

var kindNames = [numKinds]string{"open", "close", "modify", "query"}

// sample is one completed request.
type sample struct {
	kind   reqKind
	rung   int
	latMs  float64 // completion − due time
	lagMs  float64 // dispatch − due time: how late the generator ran
	ok     bool    // answered 200
	failed bool
	code   int // HTTP status, 0 on a transport error
	doneAt time.Time
}

// loadGen is the open-loop client: one generator goroutine releases
// requests at their due times, daemonLanes client connections execute
// them.
type loadGen struct {
	p       *daemonProc
	tr      *tracer
	roots   []int
	clients []*http.Client

	mu           sync.Mutex // guards the fields below
	churn        []int      // sessions the mix opened and may close
	opening      int        // open requests in flight
	preload      []int      // long-lived sessions modify targets
	samples      []sample
	opened       int // open requests answered 200 (preload excluded)
	closed       int // close requests answered 200
	closeRefused int // close requests answered 409

	maxQueue int // deepest control queue /api/status reported; main goroutine only
}

type dueReq struct {
	kind   reqKind
	rung   int
	id     int64
	seed   uint64        // per-request stream for its target and parameters
	offset time.Duration // due time from the rung's start
	dueAt  time.Time
	sent   time.Time
}

// rung runs one rate of the ladder: count requests with Poisson gaps at
// rps, then waits for them to finish. It returns the backlog when the
// last request fell due: requests due by then that had not completed.
func (g *loadGen) rung(idx int, rps float64, count int, rng *sim.RNG, nextID *int64) (backlog int) {
	due := make([]dueReq, count)
	t := 0.0
	for i := range due {
		t += rng.Exp(1 / rps)
		*nextID++
		due[i] = dueReq{kind: reqKind(rng.Intn(int(numKinds))), rung: idx, id: *nextID,
			seed: rng.Uint64(), offset: time.Duration(t * 1e9)}
	}
	// The queue holds every request of the rung, so the generator never
	// blocks on it: a slow daemon shows as latency, not as generator lag.
	q := make(chan dueReq, len(due))
	var wg sync.WaitGroup
	for l := range g.clients {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for r := range q {
				g.execute(lane, r)
			}
		}(l)
	}
	start := time.Now()
	var end time.Time
	for _, r := range due {
		r.dueAt = start.Add(r.offset)
		time.Sleep(time.Until(r.dueAt))
		r.sent = time.Now()
		q <- r
		end = r.dueAt
	}
	close(q)
	g.mu.Lock()
	done := 0
	for _, s := range g.samples {
		if s.rung == idx && !s.doneAt.After(end) {
			done++
		}
	}
	g.mu.Unlock()
	wg.Wait()
	return len(due) - done
}

// execute sends one request on a lane's connection.
func (g *loadGen) execute(lane int, r dueReq) {
	rng := sim.NewRNG(r.seed)
	c := g.clients[lane]
	base := g.p.base
	// The sessions the mix opens stay between 0 and daemonChurnCap, so
	// the fabric carries the same load whatever the seed: an open at the
	// cap closes instead, a close with nothing to close opens. A close
	// takes its session out of the pool in the same critical section, so
	// two lanes never pick the same one.
	kind, conn := r.kind, 0
	g.mu.Lock()
	switch {
	case kind == kindClose && len(g.churn) == 0:
		kind = kindOpen
	case kind == kindOpen && len(g.churn)+g.opening >= daemonChurnCap && len(g.churn) > 0:
		kind = kindClose
	}
	switch kind {
	case kindOpen:
		g.opening++
	case kindClose:
		i := rng.Intn(len(g.churn))
		conn = g.churn[i]
		g.churn[i] = g.churn[len(g.churn)-1]
		g.churn = g.churn[:len(g.churn)-1]
	case kindModify:
		conn = g.preload[rng.Intn(len(g.preload))]
	}
	g.mu.Unlock()
	root := -1
	if g.tr != nil {
		root = g.roots[lane]
	}
	s := g.tr.begin("daemon", "daemon."+kindNames[kind], root, lane, r.id)
	var ok, failed bool
	var code int
	switch kind {
	case kindOpen:
		var resp openResp
		ok, failed, code = call(c, http.MethodPost, base+"/api/open", randomOpen(rng), &resp)
		g.mu.Lock()
		g.opening--
		if ok {
			g.churn = append(g.churn, resp.Conn)
			g.opened++
		}
		g.mu.Unlock()
	case kindClose:
		ok, failed, code = call(c, http.MethodPost, base+"/api/close", map[string]any{"conn": conn, "limit": daemonDrainLimit}, nil)
		g.mu.Lock()
		if ok {
			g.closed++
		} else if !failed {
			g.closeRefused++ // the drain ran out: the session stopped injecting but stays unclosed
		}
		g.mu.Unlock()
	case kindModify:
		rate := daemonRateMbps * (0.9 + 0.1*float64(rng.Intn(3))) // 0.9×, 1× or 1.1×
		ok, failed, code = call(c, http.MethodPost, base+"/api/modify", map[string]any{"conn": conn, "rate_mbps": rate}, nil)
	case kindQuery:
		url := fmt.Sprintf("%s/api/query?node=%d&port=%d", base, rng.Intn(16), rng.Intn(5))
		ok, failed, code = call(c, http.MethodGet, url, nil, nil)
	}
	g.tr.end(s)
	now := time.Now()
	g.mu.Lock()
	g.samples = append(g.samples, sample{kind: kind, rung: r.rung, ok: ok, failed: failed, code: code,
		latMs: float64(now.Sub(r.dueAt).Nanoseconds()) / 1e6,
		lagMs: float64(r.sent.Sub(r.dueAt).Nanoseconds()) / 1e6, doneAt: now})
	g.mu.Unlock()
}

// rungResult summarizes one rate of the ladder.
type rungResult struct {
	rps     float64
	n       int
	backlog int
	p99     quantile
	failed  int
	holds   bool // p99 within the limit with no growing backlog
}

// latencies returns the latencies of one rung's requests (all rungs when
// rung < 0), of one kind (all kinds when kind < 0). A failed request
// misses every latency limit, so it counts as +Inf.
func (g *loadGen) latencies(rung int, kind reqKind) []float64 {
	var out []float64
	for _, s := range g.samples {
		if (rung < 0 || s.rung == rung) && (kind < 0 || s.kind == kind) {
			if s.failed {
				out = append(out, math.Inf(1))
			} else {
				out = append(out, s.latMs)
			}
		}
	}
	return out
}

// ladder returns the rungs' rates and request counts: the reference
// rate gets daemonRefShare of the measured phase, the other rates share
// the rest.
func ladder(rec *recorded, seconds float64) (rates []float64, counts []int, ref int) {
	rates = rec.Daemon.Ladder
	ref = -1
	for i, r := range rates {
		if r == rec.Daemon.ReferenceRPS {
			ref = i
		}
	}
	for i, r := range rates {
		share := (1 - daemonRefShare) / float64(len(rates)-1)
		if i == ref {
			share = daemonRefShare
		}
		counts = append(counts, int(math.Max(1, math.Round(r*share*seconds))))
	}
	return rates, counts, ref
}

// snapshot reads the daemon's published metric snapshot.
func (p *daemonProc) snapshot() (*metrics.Snapshot, error) {
	var snap metrics.Snapshot
	if ok, _, code := call(p.client, http.MethodGet, p.base+"/metrics.json", nil, &snap); !ok {
		return nil, fmt.Errorf("/metrics.json answered %d", code)
	}
	return &snap, nil
}

// netMeans reads the mean of every series of each histogram family from a
// metric snapshot.
func netMeans(snap *metrics.Snapshot, names ...string) ([]float64, error) {
	out := make([]float64, len(names))
	for i, name := range names {
		var s float64
		var n int64
		for _, h := range snap.Histograms {
			if h.Name == name {
				s += h.Sum
				n += h.Count
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("daemon published no %s samples", name)
		}
		out[i] = s / float64(n)
	}
	return out, nil
}

func runDaemonLoop(rc runConfig) (*outcome, error) {
	rec, err := loadRecorded()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := sim.NewRNG(rc.seed ^ 0xdae)

	// Set-up runs quickSetupReps times; every daemon but the last is
	// drained at once, which proves SIGTERM's graceful exit on each run.
	reps := quickSetupReps
	if rc.trace {
		reps = 1
	}
	var setups []float64
	var p *daemonProc
	var preload []int
	for i := 0; i < reps; i++ {
		t := time.Now()
		p, preload, err = daemonSetup(rc, filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < reps-1 {
			if err := p.drain(len(preload)); err != nil {
				return nil, err
			}
		}
	}
	// Until the final drain, any way out of the run stops the daemon.
	fail := func(err error) (*outcome, error) {
		p.kill()
		return nil, err
	}
	gmp := procGOMAXPROCS(p.cmd.Process.Pid)
	g := &loadGen{p: p, preload: preload}
	for l := 0; l < min(daemonLanes, runtime.NumCPU()); l++ {
		g.clients = append(g.clients, &http.Client{Timeout: daemonReqTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	st0, err := p.status()
	if err != nil {
		return fail(err)
	}
	rates, counts, ref := ladder(rec, rc.seconds)
	var nextID int64
	// A traced run first sends daemonOverheadReqs requests at the
	// reference rate untraced; the same rate traced gives the overhead.
	overheadRung := len(rates)
	if rc.trace {
		g.rung(overheadRung, rates[ref], daemonOverheadReqs, rng, &nextID)
		g.tr = newTracer()
		for l := range g.clients {
			g.roots = append(g.roots, g.tr.begin(otherLayer, "lane", -1, l, 0))
		}
	}
	var rungs []rungResult
	start := time.Now()
	for i, r := range rates {
		backlog := g.rung(i, r, counts[i], rng, &nextID)
		st, err := p.status()
		if err != nil {
			return fail(err)
		}
		if st.QueueDepth > g.maxQueue {
			g.maxQueue = st.QueueDepth
		}
		rr := rungResult{rps: r, n: counts[i], backlog: backlog, p99: tail(g.latencies(i, -1), 0.99)}
		for _, s := range g.samples {
			if s.rung == i && s.failed {
				rr.failed++
			}
		}
		rr.holds = rr.p99.Value <= rec.Daemon.P99LimitMs &&
			float64(backlog) <= math.Max(float64(2*len(g.clients)), r*rec.Daemon.P99LimitMs/1e3)
		rungs = append(rungs, rr)
	}
	elapsed := time.Since(start).Seconds()
	for _, r := range g.roots {
		g.tr.end(r)
	}
	st1, err := p.status()
	if err != nil {
		return fail(err)
	}
	snap, err := p.snapshot()
	if err != nil {
		return fail(err)
	}
	means, err := netMeans(snap, "mmr_net_delay_cycles", "mmr_net_jitter_cycles")
	if err != nil {
		return fail(err)
	}
	rss, err := vmHWM(strconv.Itoa(p.cmd.Process.Pid))
	if err != nil {
		return fail(err)
	}

	// Conservation: every session the daemon admitted, closed or holds
	// open is one the benchmark saw answered.
	accepted := int64(len(preload) + g.opened)
	wantOpen := int(accepted) - g.closed - g.closeRefused
	switch {
	case st1.SetupAttempts != st1.SetupAccepted+st1.SetupRejected || st1.SetupRetries != 0:
		return fail(incorrect("daemon counted %d setup attempts, %d accepted + %d rejected, %d retries", st1.SetupAttempts, st1.SetupAccepted, st1.SetupRejected, st1.SetupRetries))
	case st1.SetupAccepted != accepted:
		return fail(incorrect("daemon admitted %d sessions, the benchmark saw %d admitted", st1.SetupAccepted, accepted))
	case st1.Closed != int64(g.closed):
		return fail(incorrect("daemon closed %d sessions, the benchmark saw %d closed", st1.Closed, g.closed))
	case st1.ConnsOpen != wantOpen:
		return fail(incorrect("daemon holds %d open sessions, the benchmark expects %d", st1.ConnsOpen, wantOpen))
	}
	if err := p.drain(wantOpen); err != nil {
		return nil, err
	}

	var lags []float64
	var failed, events, shed, opensOK, opensAnswered int64
	for _, s := range g.samples {
		lags = append(lags, s.lagMs)
		if s.code == http.StatusServiceUnavailable {
			shed++
		}
		if s.failed {
			failed++
		}
		if !s.failed && s.kind != kindQuery {
			events++
		}
		if s.kind == kindOpen && !s.failed {
			opensAnswered++
			if s.ok {
				opensOK++
			}
		}
	}
	lag := tail(lags, 0.99)
	if lag.Value > rec.Daemon.GenLagMaxMs {
		return nil, fmt.Errorf("run invalid: the generator itself fell behind (lag %s = %.2f ms > %.2f ms)", lag, lag.Value, rec.Daemon.GenLagMaxMs)
	}
	maxRPS := 0.0
	for _, r := range rungs {
		if r.holds && r.rps > maxRPS {
			maxRPS = r.rps
		}
	}
	refLat := g.latencies(ref, -1)
	p50, p99 := median(refLat), tail(refLat, 0.99)
	oc := &outcome{attempted: int64(len(g.samples)), failed: failed, daemonGMP: gmp}
	for _, r := range rungs {
		oc.notes = append(oc.notes, fmt.Sprintf("rung %g rps: %d requests, %s = %.3f ms, backlog %d at its end, %d failed, holds=%v",
			r.rps, r.n, r.p99, r.p99.Value, r.backlog, r.failed, r.holds))
	}
	oc.notes = append(oc.notes,
		fmt.Sprintf("req_p50_ms is the %s requests at the reference %g rps, req_p99_ms the %s; limit %g ms", p50, rec.Daemon.ReferenceRPS, p99, rec.Daemon.P99LimitMs),
		fmt.Sprintf("generator lag %s = %.3f ms", lag, lag.Value),
		fmt.Sprintf("%d opens admitted of %d answered, %d closes done, %d closes refused", opensOK, opensAnswered, g.closed, g.closeRefused))
	if !rc.trace {
		oc.metrics = map[string]float64{
			"setup_s":              median(setups).Value,
			"router_cycles_per_s":  16 * float64(st1.Cycle-st0.Cycle) / elapsed,
			"session_events_per_s": float64(events) / elapsed,
			"peak_rss_bytes":       rss,
			"req_p50_ms":           p50.Value,
			"sim_delay_cycles":     means[0],
			"sim_jitter_cycles":    means[1],
			"sim_accept_ratio":     float64(opensOK) / float64(opensAnswered),
		}
		return oc, nil
	}
	m := map[string]float64{
		"daemon.queue_depth.max": float64(g.maxQueue),
		"daemon.shed":            float64(shed),
		"gen.lag_ms.p99":         lag.Value,
		"req_max_rps":            maxRPS,
		"req_p99_ms":             p99.Value,
		"fail_ratio":             float64(failed) / float64(len(g.samples)),
		"trace.overhead_frac":    p50.Value/median(g.latencies(overheadRung, -1)).Value - 1,
	}
	for k := kindOpen; k < numKinds; k++ {
		m["daemon."+kindNames[k]+"_ms.p99"] = tail(g.latencies(ref, k), 0.99).Value
	}
	for _, r := range rungs {
		m[fmt.Sprintf("daemon.p99_ms.r%g", r.rps)] = r.p99.Value
	}
	// The daemon free-runs, so how many cycles its counters cover depends
	// on the host's speed.
	netSchedCounts(snap).into(m)
	oc.tracer = g.tr
	layerFracs(g.tr.attribution(), m)
	oc.metrics = m
	return oc, nil
}
