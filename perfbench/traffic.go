package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// Traffic shape of simd_mixed, offered to the daemon and, in the traced
// run, to the gateway.
const (
	// poolSize is the number of finished specs the hits and reads
	// target; set-up executes them.
	poolSize = 16
	// nominalRate is the offered rate the latency metrics are taken at,
	// below the knee on both targets.
	nominalRate = 70.0
	// Ladder step limits: a step passes only if every one holds.
	coldLimit = time.Second
	fastLimit = 20 * time.Millisecond
	// failedLatency stands in for the latency of a failed request: it
	// misses every limit.
	failedLatency = 10 * time.Second
)

// ladder is the fixed sequence of offered rates (requests per second),
// each offered for ladderStep, rungs a factor of about 1.4 apart. The
// highest rung meeting every limit is the max sustained rate; the top
// rung's goodput is the throughput metric.
var ladder = []float64{100, 140, 200, 280, 400}

const ladderStep = 3 * time.Second

// topSteps is how many ladder steps the untraced run offers the top
// rung for, right after the nominal phase, to measure its goodput. The
// full walk up the ladder runs in the traced run only.
const topSteps = 2

type opKind int

const (
	opCold opKind = iota
	opHit
	opReport
	opSeries
	opScrape
)

func (k opKind) fast() bool { return k == opHit || k == opReport || k == opSeries }

// op is one scheduled request.
type op struct {
	kind   opKind
	due    time.Time
	method string
	path   string
	body   []byte
	id     string // X-Request-ID
	spec   int    // cold: index into the cold pool
}

// opResult is what the client saw. picked is when a connection took
// the op off the schedule.
type opResult struct {
	picked     time.Time
	sent, done time.Time
	status     int
	err        error
	runID      string
	cacheHit   bool
	body       []byte
}

func (r opResult) latency(o op) time.Duration {
	if r.err != nil || r.status >= 300 {
		return failedLatency
	}
	return r.done.Sub(r.start(o))
}

// start is when the system under test became responsible for the
// request. A request no connection was free for at its due time is
// charged from the due time, so a stall counts against every request
// it delays. A request a connection was waiting for is charged from
// when it was sent: the generator's own timer oversleep is not the
// system's, and is reported as generator lag instead.
func (r opResult) start(o op) time.Time {
	if r.picked.Before(o.due) {
		return r.sent
	}
	return o.due
}

// coldSpec is the n-th small distinct spec: one 2-rack, 2-hour run.
func coldSpec(seed int64, n int) sim.RunSpec {
	kinds := []string{"smalljob", "medianjob", "bigjob", "bursty"}
	policies := []string{"SHUT", "DVFS", "MIX"}
	caps := []float64{0.6, 0.4}
	return sim.RunSpec{
		Name:         "bench",
		Workload:     sim.WorkloadSpec{Kind: kinds[n%4], Seed: deriveSeed(seed, int64(n)), DurationSec: 7200},
		Racks:        2,
		Policies:     []string{policies[(n/4)%3]},
		CapFractions: []float64{caps[(n/12)%2]},
	}
}

func encodeSpec(s sim.RunSpec) []byte {
	var buf bytes.Buffer
	_ = s.EncodeJSON(&buf) // a RunSpec always encodes
	return buf.Bytes()
}

// probe wraps a server's http.Handler and, while on, records every
// request it serves.
type probe struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	recs []handled
}

type handled struct {
	id, method, path string
	status           int
	start, end       time.Time
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (p *probe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !p.on.Load() {
		p.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	p.next.ServeHTTP(sw, r)
	h := handled{id: r.Header.Get("X-Request-ID"), method: r.Method, path: r.URL.Path, status: sw.status, start: start, end: time.Now()}
	p.mu.Lock()
	p.recs = append(p.recs, h)
	p.mu.Unlock()
}

func (p *probe) take() []handled {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.recs
	p.recs = nil
	return out
}

// target is one booted system under test: a daemon, or a gateway in
// front of two one-slot workers, each on a loopback listener.
type target struct {
	gateway bool
	base    string
	daemon  *service.Server
	gw      *service.Gateway
	workers []*service.Server
	front   *probe
	backs   []*probe // the daemon's or the workers' probes
	https   []*http.Server
	served  sync.WaitGroup
	gwHTTP  *http.Client
}

func (t *target) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.https = append(t.https, hs)
	t.served.Add(1)
	go func() {
		defer t.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func bootTarget(gateway bool) (*target, error) {
	t := &target{gateway: gateway}
	// A large hot tier keeps the hit pool resident for the whole run.
	const maxRuns = 1 << 16
	if !gateway {
		t.daemon = service.New(service.Config{Workers: 2, MaxRuns: maxRuns, SSEKeepalive: -1})
		p := &probe{next: t.daemon.Handler()}
		t.front, t.backs = p, []*probe{p}
		base, err := t.listen(p)
		if err != nil {
			t.close()
			return nil, err
		}
		t.base = base
		return t, nil
	}
	t.gwHTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	// The lease outlives the run, so no heartbeat loop is needed.
	t.gw = service.NewGateway(service.GatewayConfig{HTTPClient: t.gwHTTP, LeaseTTL: time.Hour, SSEKeepalive: -1})
	t.front = &probe{next: t.gw.Handler()}
	base, err := t.listen(t.front)
	if err != nil {
		t.close()
		return nil, err
	}
	t.base = base
	for i := 0; i < 2; i++ {
		w := service.New(service.Config{Workers: 1, MaxRuns: maxRuns, SSEKeepalive: -1})
		t.workers = append(t.workers, w)
		p := &probe{next: w.Handler()}
		t.backs = append(t.backs, p)
		wbase, err := t.listen(p)
		if err != nil {
			t.close()
			return nil, err
		}
		if _, err := t.gw.Register("worker"+strconv.Itoa(i), wbase); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *target) servers() []*service.Server {
	if t.gateway {
		return t.workers
	}
	return []*service.Server{t.daemon}
}

func (t *target) stats() (queued, running, executions int) {
	for _, s := range t.servers() {
		st := s.Stats()
		queued += st.Queued
		running += st.Running
		executions += st.Executions
	}
	return
}

func (t *target) getRun(id string) (service.RunView, error) {
	if t.gateway {
		return t.gw.GetAs(service.TenantConfig{}, id, false)
	}
	return t.daemon.Get(id, false)
}

func (t *target) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Idle client connections go first: a server waits five seconds on
	// a connection that was dialled but never carried a request.
	if t.gwHTTP != nil {
		t.gwHTTP.CloseIdleConnections()
	}
	for _, hs := range t.https {
		_ = hs.Shutdown(ctx) // listeners only; the servers drain below
	}
	t.served.Wait()
	if t.gw != nil {
		_ = t.gw.Shutdown(ctx)
	}
	for _, s := range t.servers() {
		if s != nil {
			_ = s.Shutdown(ctx)
		}
	}
}

// client sends requests over at most conns connections.
type client struct {
	base  string
	http  *http.Client
	conns int
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: failedLatency}, conns: conns}
}

func (c *client) do(o op, keepBody bool) opResult {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, body)
	if err != nil {
		return opResult{err: err}
	}
	req.Header.Set("X-Request-ID", o.id)
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := opResult{sent: time.Now()}
	resp, err := c.http.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done, r.status, r.err = time.Now(), resp.StatusCode, err
	if o.kind == opCold || o.kind == opHit {
		var sr struct {
			Run      service.RunView `json:"run"`
			CacheHit bool            `json:"cache_hit"`
		}
		if err := json.Unmarshal(b, &sr); err == nil {
			r.runID, r.cacheHit = sr.Run.ID, sr.CacheHit
		}
	}
	if keepBody {
		r.body = b
	}
	return r
}

// run sends the ops open loop: each goes out at its due time on the
// first free connection, and late sends are recorded as generator lag.
func (c *client) run(ops []op) []opResult {
	res := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				picked := time.Now()
				if d := ops[i].due.Sub(picked); d > 0 {
					time.Sleep(d)
				}
				res[i] = c.do(ops[i], false)
				res[i].picked = picked
			}
		}()
	}
	wg.Wait()
	return res
}

// traffic holds one run's generated inputs and bookkeeping.
type traffic struct {
	cfg      runConfig
	rng      *rand.Rand
	t        *target
	c        *client
	pool     []sim.RunSpec
	poolIDs  []string
	bodies   [][]byte
	nextCold int
	colds    []coldRun
	seq      int
}

// coldRun is one accepted cold submission: its spec's index in the
// cold pool, when its latency clock started and the run id it got.
type coldRun struct {
	spec  int
	start time.Time
	runID string
}

// schedule generates a phase's ops: rate requests per second for d,
// mixed 10 % cold, 50 % hit, 30 % report (json, csv, ascii in turn) and
// 10 % series, plus one /metrics scrape per second.
func (tf *traffic) schedule(phase string, rate float64, d time.Duration, start time.Time) []op {
	n := int(rate * d.Seconds())
	ops := make([]op, 0, n+int(d.Seconds())+1)
	formats := []string{"json", "csv", "ascii"}
	reports := 0
	scrapeAt := time.Duration(0)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		for scrapeAt <= due.Sub(start) {
			ops = append(ops, tf.op(phase, opScrape, start.Add(scrapeAt), "GET", "/metrics", nil))
			scrapeAt += time.Second
		}
		u := tf.rng.Float64()
		p := tf.rng.Intn(len(tf.pool))
		switch {
		case u < 0.1:
			o := tf.op(phase, opCold, due, "POST", "/v1/runs", encodeSpec(coldSpec(tf.cfg.seed, tf.nextCold)))
			o.spec = tf.nextCold
			tf.nextCold++
			ops = append(ops, o)
		case u < 0.6:
			ops = append(ops, tf.op(phase, opHit, due, "POST", "/v1/runs", tf.bodies[p]))
		case u < 0.9:
			f := formats[reports%len(formats)]
			reports++
			ops = append(ops, tf.op(phase, opReport, due, "GET", "/v1/runs/"+tf.poolIDs[p]+"/report?format="+f, nil))
		default:
			ops = append(ops, tf.op(phase, opSeries, due, "GET", "/v1/runs/"+tf.poolIDs[p]+"/series?metric=power", nil))
		}
	}
	return ops
}

func (tf *traffic) op(phase string, k opKind, due time.Time, method, path string, body []byte) op {
	tf.seq++
	return op{kind: k, due: due, method: method, path: path, body: body, id: fmt.Sprintf("pb-%s-%d", phase, tf.seq)}
}

// phaseResult summarises one phase after its cold runs drained.
type phaseResult struct {
	ops     []op
	res     []opResult
	elapsed time.Duration
	hitMS   []float64
	readMS  []float64
	fastMS  []float64
	// fastBySec buckets fastMS by the second of the phase each request
	// was due in.
	fastBySec map[int][]float64
	coldMS    []float64
	lagMS     []float64
	scrapeMS  []float64
	failed    int
	// good counts requests that met their limit: fast ones answered
	// within fastLimit, cold ones finished within coldLimit.
	good   int
	hits   int
	subs   int
	queue  []int
	stages []service.StageTimings
}

// runPhase offers rate for d, samples the run queue while it runs,
// then waits for the phase's cold runs and reads their completion
// times back.
func (tf *traffic) runPhase(phase string, rate float64, d time.Duration) (phaseResult, error) {
	start := time.Now().Add(20 * time.Millisecond)
	pr := phaseResult{ops: tf.schedule(phase, rate, d, start), fastBySec: map[int][]float64{}}
	stop := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var q []int
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- q
				return
			case <-tick.C:
				n, _, _ := tf.t.stats()
				q = append(q, n)
			}
		}
	}()
	pr.res = tf.c.run(pr.ops)
	pr.elapsed = time.Since(start)
	close(stop)
	pr.queue = <-sampled

	var colds []coldRun
	for i, o := range pr.ops {
		r := pr.res[i]
		ok := r.err == nil && r.status < 300
		pr.lagMS = append(pr.lagMS, ms(r.sent.Sub(o.due)))
		lat := ms(r.latency(o))
		switch o.kind {
		case opCold:
			pr.subs++
			ok = ok && r.status == http.StatusCreated && !r.cacheHit && r.runID != ""
			if ok {
				colds = append(colds, coldRun{spec: o.spec, start: r.start(o), runID: r.runID})
			}
		case opHit:
			pr.subs++
			ok = ok && r.cacheHit
			if ok {
				pr.hits++
			}
			pr.hitMS = append(pr.hitMS, lat)
		case opReport, opSeries:
			pr.readMS = append(pr.readMS, lat)
		case opScrape:
			pr.scrapeMS = append(pr.scrapeMS, lat)
		}
		if o.kind.fast() {
			pr.fastMS = append(pr.fastMS, lat)
			sec := int(o.due.Sub(start) / time.Second)
			pr.fastBySec[sec] = append(pr.fastBySec[sec], lat)
			if ok && lat <= ms(fastLimit) {
				pr.good++
			}
		}
		if !ok {
			pr.failed++
			if o.kind == opCold {
				pr.coldMS = append(pr.coldMS, ms(failedLatency))
			}
		}
	}
	if err := tf.drain(); err != nil {
		return pr, err
	}
	for _, c := range colds {
		v, err := tf.t.getRun(c.runID)
		if err != nil || v.State != service.StateDone || v.FinishedAt == nil {
			pr.failed++
			pr.coldMS = append(pr.coldMS, ms(failedLatency))
			continue
		}
		lat := v.FinishedAt.Sub(c.start)
		pr.coldMS = append(pr.coldMS, ms(lat))
		if lat <= coldLimit {
			pr.good++
		}
		if v.Stages != nil {
			pr.stages = append(pr.stages, *v.Stages)
		}
	}
	tf.colds = append(tf.colds, colds...)
	return pr, nil
}

// drain waits until every accepted cold run has executed and, behind a
// gateway, until the completion watchers have had time to see it.
func (tf *traffic) drain() error {
	want := len(tf.pool) + tf.nextCold
	deadline := time.Now().Add(30 * time.Second)
	for {
		q, running, execs := tf.t.stats()
		if q == 0 && running == 0 && execs >= want {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cold runs did not drain: queued=%d running=%d executions=%d want %d", q, running, execs, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tf.t.gateway {
		// Two watcher poll intervals: every watcher has observed the
		// terminal state before the probes stop counting polls.
		time.Sleep(300 * time.Millisecond)
	}
	return nil
}

// trafficSetup boots the target, executes the pool specs and reads each
// pool run once.
func trafficSetup(cfg runConfig, gateway bool) (*traffic, error) {
	t, err := bootTarget(gateway)
	if err != nil {
		return nil, err
	}
	tf := &traffic{cfg: cfg, rng: rand.New(rand.NewSource(deriveSeed(cfg.seed, 7))), t: t, c: newClient(t.base, runtime.NumCPU())}
	for i := 0; i < poolSize; i++ {
		s := coldSpec(cfg.seed, 1_000_000+i)
		tf.pool = append(tf.pool, s)
		tf.bodies = append(tf.bodies, encodeSpec(s))
	}
	for i, b := range tf.bodies {
		r := tf.c.do(tf.op("setup", opCold, time.Now(), "POST", "/v1/runs", b), false)
		if r.err != nil || r.status != http.StatusCreated || r.runID == "" {
			t.close()
			return nil, fmt.Errorf("pool submission %d: status %d err %v", i, r.status, r.err)
		}
		tf.poolIDs = append(tf.poolIDs, r.runID)
	}
	if err := tf.drain(); err != nil {
		t.close()
		return nil, err
	}
	for _, id := range tf.poolIDs {
		v, err := t.getRun(id)
		if err != nil || v.State != service.StateDone {
			t.close()
			return nil, fmt.Errorf("pool run %s: state %s err %v", id, v.State, err)
		}
		r := tf.c.do(tf.op("setup", opReport, time.Now(), "GET", "/v1/runs/"+id+"/report?format=json", nil), false)
		if r.err != nil || r.status != http.StatusOK {
			t.close()
			return nil, fmt.Errorf("pool report %s: status %d err %v", id, r.status, r.err)
		}
	}
	return tf, nil
}

// runSimdMixed is the simd_mixed workload. The end-to-end metrics are
// the daemon's. The traced run then offers the same traffic to the
// gateway in front of two workers and takes the gateway layer's metrics
// from there; every other per-layer metric is the daemon's.
func runSimdMixed(cfg runConfig) (outcome, error) {
	out, err := runTraffic(cfg, false)
	if err != nil || !cfg.trace {
		return out, err
	}
	gcfg := cfg
	if cfg.spanFile != "" {
		gcfg.spanFile = strings.TrimSuffix(cfg.spanFile, ".spans.json") + "-gateway.spans.json"
	}
	gw, err := runTraffic(gcfg, true)
	out.attempted += gw.attempted
	out.failed += gw.failed
	if err != nil {
		return out, err
	}
	for k, v := range gw.layers {
		if strings.HasPrefix(k, "gateway.") {
			out.layers[k] = v
		}
	}
	return out, nil
}

func runTraffic(cfg runConfig, gateway bool) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var tf *traffic
	setup, err := repeatSetup(func() (func(), error) {
		var err error
		tf, err = trafficSetup(cfg, gateway)
		if err != nil {
			return nil, err
		}
		return func() {
			tf.c.http.CloseIdleConnections()
			tf.t.close()
		}, nil
	})
	if err != nil {
		return out, err
	}
	defer tf.t.close()
	defer tf.c.http.CloseIdleConnections()
	out.e2e["setup_s"] = setup
	// The ladder takes a fixed ladderStep per rung; the untraced run
	// offers only the top rung, for topSteps steps. The rest of the
	// window is the nominal phase; the traced run splits it between its
	// untraced and traced halves.
	step := ladderStep
	if cfg.tiny {
		step = cfg.window / 8
	}
	rungs := len(ladder)
	if !cfg.trace {
		rungs = topSteps
	}
	nominal := cfg.window - time.Duration(rungs)*step
	if cfg.trace {
		nominal /= 2
	}
	if nominal < step {
		return out, fmt.Errorf("--seconds is too short for the %v the rate ladder takes", time.Duration(rungs)*step)
	}

	count := func(pr phaseResult) {
		out.attempted += int64(len(pr.ops))
		out.failed += int64(pr.failed)
	}
	if !cfg.trace {
		pr, err := tf.runPhase("nominal", nominalRate, nominal)
		if err != nil {
			return out, err
		}
		count(pr)
		var lag, svc []float64
		for i, o := range pr.ops {
			if o.kind.fast() {
				lag = append(lag, ms(pr.res[i].sent.Sub(o.due)))
				svc = append(svc, ms(pr.res[i].done.Sub(pr.res[i].sent)))
			}
		}
		fmt.Fprintf(tf.cfg.log, "# nominal %.0f req/s for %v: fast p50 %.3f p90 %.3f ms; generator lag p50 %.3f p90 %.3f ms; service p50 %.3f p90 %.3f ms\n",
			nominalRate, nominal, quantile(pr.fastMS, 0.5), quantile(pr.fastMS, 0.9), quantile(lag, 0.5), quantile(lag, 0.9), quantile(svc, 0.5), quantile(svc, 0.9))
		out.e2e["latency_ms_p50"] = pr.perSecond(0.5)
		lr, err := tf.walkLadder(ladder[len(ladder)-1:], time.Duration(topSteps)*step, &out)
		if err != nil {
			return out, err
		}
		out.e2e["throughput_per_s"] = lr.goodput
		out.e2e["max_rss_mb"] = peakRSSMB()
		return out, tf.gates(nil)
	}

	// Traced run: the nominal phase untraced, then again with the
	// handler probes on and spans per request, then the ladder.
	plain, err := tf.runPhase("plain", nominalRate, nominal)
	if err != nil {
		return out, err
	}
	count(plain)
	tr := newTracer()
	_, _, execs0 := tf.t.stats()
	for _, p := range append([]*probe{tf.t.front}, tf.t.backs...) {
		p.on.Store(true)
	}
	traced, err := tf.runPhase("traced", nominalRate, nominal)
	for _, p := range append([]*probe{tf.t.front}, tf.t.backs...) {
		p.on.Store(false)
	}
	if err != nil {
		return out, err
	}
	count(traced)
	_, _, execs1 := tf.t.stats()
	tf.layerMetrics(tr, plain, traced, out.layers)
	out.layers["service.executions"] = float64(execs1 - execs0)
	lr, err := tf.walkLadder(ladder, step, &out)
	if err != nil {
		return out, err
	}
	out.layers["traffic.max_rate_rps"] = lr.maxRate
	if err := tf.gates(out.layers); err != nil {
		return out, err
	}
	return out, finishTrace(cfg, tr)
}

// ladderResult is what one walk up the rate ladder measured.
type ladderResult struct {
	// maxRate is the achieved rate of the highest rung that met every
	// condition with every lower rung also meeting them (0 if none).
	maxRate float64
	// goodput is the rate of requests that met their latency limit at
	// the top rung.
	goodput float64
}

// walkLadder offers every rung of rates for step each, lowest first.
func (tf *traffic) walkLadder(rates []float64, step time.Duration, out *outcome) (ladderResult, error) {
	var lr ladderResult
	passing := true
	for i, rate := range rates {
		pr, err := tf.runPhase("rung"+strconv.Itoa(i), rate, step)
		if err != nil {
			return lr, err
		}
		out.attempted += int64(len(pr.ops))
		out.failed += int64(pr.failed)
		verdict := pr.verdict()
		fmt.Fprintf(tf.cfg.log, "# ladder %4.0f req/s: good %.1f/s, hit p99 %.1f ms, read p99 %.1f ms, cold p90 %.0f ms, lag p99 %.1f ms %s\n",
			rate, float64(pr.good)/step.Seconds(), quantile(pr.hitMS, 0.99), quantile(pr.readMS, 0.99), quantile(pr.coldMS, 0.9), quantile(pr.lagMS, 0.99), verdict)
		passing = passing && verdict == ""
		if passing {
			lr.maxRate = float64(len(pr.ops)) / pr.elapsed.Seconds()
		}
		lr.goodput = float64(pr.good) / step.Seconds()
	}
	return lr, nil
}

// perSecond is the median over the phase's seconds of the q-quantile
// of the fast requests due in that second: one busy second on a shared
// host moves it far less than it moves the quantile of the whole phase.
func (pr phaseResult) perSecond(q float64) float64 {
	var qs []float64
	for _, xs := range pr.fastBySec {
		qs = append(qs, quantile(xs, q))
	}
	return median(qs)
}

// verdict lists the conditions a rung missed ("" when it met them all):
// no failure, cold p90 within coldLimit, hit and read p99 within
// fastLimit, the generator never later than fastLimit at p99, and no
// growing run queue.
func (pr phaseResult) verdict() string {
	var why []string
	if pr.failed > 0 {
		why = append(why, fmt.Sprintf("%d failed", pr.failed))
	}
	if p := quantile(pr.coldMS, 0.9); p > ms(coldLimit) {
		why = append(why, fmt.Sprintf("cold p90 %.1f ms", p))
	}
	if p := quantile(pr.hitMS, 0.99); p > ms(fastLimit) {
		why = append(why, fmt.Sprintf("hit p99 %.1f ms", p))
	}
	if p := quantile(pr.readMS, 0.99); p > ms(fastLimit) {
		why = append(why, fmt.Sprintf("read p99 %.1f ms", p))
	}
	if p := quantile(pr.lagMS, 0.99); p > ms(fastLimit) {
		why = append(why, fmt.Sprintf("generator lag p99 %.1f ms", p))
	}
	if n := len(pr.queue); n >= 6 {
		var first, last float64
		for _, q := range pr.queue[:n/3] {
			first += float64(q)
		}
		for _, q := range pr.queue[n-n/3:] {
			last += float64(q)
		}
		if (last-first)/float64(n/3) > 1 {
			why = append(why, fmt.Sprintf("queue grew %.1f -> %.1f", first/float64(n/3), last/float64(n/3)))
		}
	}
	return strings.Join(why, ", ")
}
