package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/sim"
)

var opNames = map[opKind]string{opCold: "cold", opHit: "hit", opReport: "report", opSeries: "series", opScrape: "scrape"}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics turns the traced phase's client results and handler
// records into spans and per-layer metrics. The end-to-end breakdown
// and the generator's health come from the untraced phase.
func (tf *traffic) layerMetrics(tr *Tracer, plain, traced phaseResult, layers map[string]float64) {
	layers["traffic.cold_ms_p50"] = quantile(plain.coldMS, 0.5)
	layers["traffic.cold_ms_p90"] = quantile(plain.coldMS, 0.9)
	layers["traffic.hit_ms_p50"] = quantile(plain.hitMS, 0.5)
	layers["traffic.hit_ms_p99"] = quantile(plain.hitMS, 0.99)
	layers["traffic.read_ms_p50"] = quantile(plain.readMS, 0.5)
	layers["traffic.read_ms_p99"] = quantile(plain.readMS, 0.99)
	layers["loadgen.lag_ms_p99"] = quantile(plain.lagMS, 0.99)
	layers["loadgen.sent"] = float64(len(plain.ops))
	layers["trace.overhead_ratio"] = ratio(median(traced.fastMS), median(plain.fastMS))

	frontName, backName := "service.handler", "service.handler"
	if tf.t.gateway {
		frontName, backName = "gateway.handler", "worker.handler"
	}
	front := map[string]handled{}
	for _, h := range tf.t.front.take() {
		front[h.id] = h
	}
	var backs []handled
	if tf.t.gateway {
		for _, p := range tf.t.backs {
			backs = append(backs, p.take()...)
		}
	} else {
		for _, h := range front {
			backs = append(backs, h)
		}
	}
	backsByID := map[string][]handled{}
	for _, h := range backs {
		backsByID[h.id] = append(backsByID[h.id], h)
	}

	var overhead, decode, hash, dispatch, proxy, gwSubmit []float64
	// coldIDs are the traced cold submissions: the gateway's completion
	// watcher forwards a run's submission id on every poll.
	coldIDs := map[string]bool{}
	for i, o := range traced.ops {
		r := traced.res[i]
		if r.err != nil {
			continue
		}
		root := tr.Record("client."+opNames[o.kind], o.id, 0, r.sent, r.done)
		f, ok := front[o.id]
		if !ok {
			continue
		}
		fs := tr.Record(frontName, o.id, root, f.start, f.end)
		overhead = append(overhead, us(r.done.Sub(r.sent)-f.end.Sub(f.start)))
		if o.kind == opCold {
			coldIDs[o.id] = true
			t0 := time.Now()
			spec, err := sim.DecodeJSON(bytes.NewReader(o.body))
			if err == nil {
				err = spec.Validate()
			}
			decode = append(decode, us(time.Since(t0)))
			if err == nil {
				t0 = time.Now()
				_, _ = sim.SpecHash(spec) // the spec validated above
				hash = append(hash, us(time.Since(t0)))
			}
		}
		if !tf.t.gateway {
			continue
		}
		if o.method == http.MethodPost {
			gwSubmit = append(gwSubmit, us(f.end.Sub(f.start)))
		}
		for _, w := range backsByID[o.id] {
			if o.kind == opCold && w.method == http.MethodPost {
				tr.Record(backName, o.id, fs, w.start, w.end)
				dispatch = append(dispatch, ms(w.start.Sub(f.end)))
			}
		}
		if o.kind == opReport || o.kind == opSeries {
			// Proxied reads carry the pool run's submission id; the
			// worker request is the one inside the gateway's handler.
			for _, ws := range backs {
				if strings.HasSuffix(ws.path, "/report") == (o.kind == opReport) && strings.Contains(ws.path, "/v1/runs/") &&
					!ws.start.Before(f.start) && !ws.end.After(f.end) && ws.method == http.MethodGet && strings.Count(ws.path, "/") == 4 {
					tr.Record(backName, o.id, fs, ws.start, ws.end)
					proxy = append(proxy, us(f.end.Sub(f.start)-ws.end.Sub(ws.start)))
					break
				}
			}
		}
	}
	layers["http.client_overhead_us"] = median(overhead)
	layers["sim.decode_validate_us"] = median(decode)
	layers["sim.hash_us"] = median(hash)

	var hitUS, coldUS, reportUS []float64
	polls := 0
	for _, h := range backs {
		d := us(h.end.Sub(h.start))
		switch {
		case h.method == http.MethodPost && h.path == "/v1/runs" && h.status == http.StatusOK:
			hitUS = append(hitUS, d)
		case h.method == http.MethodPost && h.path == "/v1/runs" && h.status == http.StatusCreated:
			coldUS = append(coldUS, d)
		case h.method == http.MethodGet && strings.HasSuffix(h.path, "/report"):
			reportUS = append(reportUS, d)
		case h.method == http.MethodGet && strings.Count(h.path, "/") == 3 && strings.HasPrefix(h.path, "/v1/runs/") && coldIDs[h.id]:
			polls++
		}
	}
	layers["service.submit_hit_us"] = median(hitUS)
	layers["service.submit_cold_us"] = median(coldUS)
	layers["service.report_read_us"] = median(reportUS)
	var queued, setup, execute, render []float64
	for _, s := range traced.stages {
		queued = append(queued, s.QueuedMS)
		setup = append(setup, s.SetupMS)
		execute = append(execute, s.ExecuteMS)
		render = append(render, s.RenderMS)
	}
	layers["service.stage_queued_ms"] = median(queued)
	layers["service.stage_setup_ms"] = median(setup)
	layers["service.stage_execute_ms"] = median(execute)
	layers["service.stage_render_ms"] = median(render)
	qmax := 0
	for _, q := range traced.queue {
		qmax = max(qmax, q)
	}
	layers["service.queue_depth_max"] = float64(qmax)
	layers["service.cache_hit_ratio"] = ratio(float64(traced.hits), float64(traced.subs))
	layers["obs.scrape_ms"] = median(traced.scrapeMS)
	layers["tsdb.series_read_us"] = tf.seriesReadUS()
	if tf.t.gateway {
		layers["gateway.submit_us"] = median(gwSubmit)
		layers["gateway.dispatch_ms"] = median(dispatch)
		layers["gateway.proxy_overhead_us"] = median(proxy)
		layers["gateway.watch_polls_per_run"] = ratio(float64(polls), float64(len(coldIDs)))
		var most, total int
		for _, w := range tf.t.workers {
			e := w.Stats().Executions
			most = max(most, e)
			total += e
		}
		layers["gateway.worker_skew"] = ratio(float64(most), float64(total)/float64(len(tf.t.workers)))
	}
}

// seriesReadUS times the telemetry store's query for every run's power
// series in process, in microseconds per query.
func (tf *traffic) seriesReadUS() float64 {
	var out []float64
	for _, s := range tf.t.servers() {
		st := s.TSDB()
		for _, id := range st.Runs() {
			r := st.Lookup(id)
			if r == nil {
				continue
			}
			t0 := time.Now()
			if _, _, err := r.Query("power", 0, 0, 0); err == nil {
				out = append(out, us(time.Since(t0)))
			}
		}
	}
	return median(out)
}

// gates checks the run after its window: the servers executed each
// distinct spec exactly once, and sampled reports fetched over HTTP are
// byte-identical to a local run and export of the same spec. With
// layers set it also records the local export times per format.
func (tf *traffic) gates(layers map[string]float64) error {
	if _, _, execs := tf.t.stats(); execs != len(tf.pool)+tf.nextCold {
		return fmt.Errorf("servers executed %d runs, want %d distinct specs", execs, len(tf.pool)+tf.nextCold)
	}
	type sample struct {
		spec  sim.RunSpec
		runID string
	}
	samples := []sample{{tf.pool[0], tf.poolIDs[0]}}
	if n := len(tf.colds); n > 0 {
		for _, c := range []coldRun{tf.colds[0], tf.colds[n/2], tf.colds[n-1]} {
			samples = append(samples, sample{coldSpec(tf.cfg.seed, c.spec), c.runID})
		}
	}
	exportMS := map[string][]float64{}
	for _, s := range samples {
		rep, err := sim.Run(context.Background(), s.spec)
		if err != nil {
			return fmt.Errorf("local run of %s: %w", s.runID, err)
		}
		for _, f := range []string{"json", "csv", "ascii"} {
			var want bytes.Buffer
			t0 := time.Now()
			if err := sim.Export(&want, f, rep, sim.SinkOptions{}); err != nil {
				return fmt.Errorf("local %s export of %s: %w", f, s.runID, err)
			}
			exportMS[f] = append(exportMS[f], ms(time.Since(t0)))
			r := tf.c.do(tf.op("gate", opReport, time.Now(), "GET", "/v1/runs/"+s.runID+"/report?format="+f, nil), true)
			if r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("fetching %s report of %s: status %d err %v", f, s.runID, r.status, r.err)
			}
			if !bytes.Equal(r.body, want.Bytes()) {
				return fmt.Errorf("%s report of %s differs from a local run (%d vs %d bytes)", f, s.runID, len(r.body), want.Len())
			}
		}
	}
	if layers != nil {
		for f, v := range exportMS {
			layers["sim.export_ms_"+f] = median(v)
		}
	}
	return nil
}
