package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/trace"
)

// goldenPath holds the repository's pinned sweep fingerprints; every
// full library sweep must reproduce "library".
const goldenPath = "testdata/golden_fingerprints.json"

// sweepScenarios is the 49-cell golden library on 2 racks, the same at
// every seed so every sweep must reproduce the golden fingerprint.
// (Seed-derived traces moved cells/s by an eighth and the cell latency
// median by two fifths between seeds, and a seed-permuted feed order
// moved cells/s by an eighth too, beyond the benchmark's bounds.) The
// tiny size keeps one workload kind.
func sweepScenarios(tiny bool) []replay.Scenario {
	scens := replay.LibraryScenarios(2)
	if tiny {
		scens = scens[:7]
	}
	return scens
}

// sweepSetup derives the grid, generates each distinct workload once
// (the benchmark's input generation) and warms up on the grid's first
// cell.
func sweepSetup(cfg runConfig) ([]replay.Scenario, error) {
	scens := sweepScenarios(cfg.tiny)
	seen := map[trace.Config]bool{}
	for _, sc := range scens {
		wl := sc.Workload
		wl.Cores = sc.Machine().Cores()
		if seen[wl] {
			continue
		}
		seen[wl] = true
		jobs, err := trace.Generate(wl)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", sc.Name, err)
		}
		if len(jobs) == 0 {
			return nil, fmt.Errorf("generating %s: no jobs", sc.Name)
		}
	}
	if res := replay.Run(scens[0]); res.Err != nil {
		return nil, fmt.Errorf("warm-up cell %s: %w", scens[0].Name, res.Err)
	}
	return scens, nil
}

// sweepGate checks one complete sweep table: no cell failed, the
// fingerprint repeats within the run, and at full size it equals the
// repository's golden library fingerprint.
type sweepGate struct {
	want   string
	golden string
}

func newSweepGate(cfg runConfig) (*sweepGate, error) {
	g := &sweepGate{}
	if !cfg.tiny {
		gold, err := loadDigests(goldenPath)
		if err != nil {
			return nil, err
		}
		if g.golden = gold["library"]; g.golden == "" {
			return nil, fmt.Errorf("%s has no library fingerprint", goldenPath)
		}
	}
	return g, nil
}

func (g *sweepGate) check(label string, tab experiment.Table) error {
	if errs := tab.Errs(); len(errs) > 0 {
		return fmt.Errorf("%s: %v", label, errs[0])
	}
	fp := tab.Fingerprint()
	if g.golden != "" && fp != g.golden {
		return fmt.Errorf("%s: library fingerprint %s differs from golden %s", label, fp, g.golden)
	}
	if g.want == "" {
		g.want = fp
	} else if fp != g.want {
		return fmt.Errorf("%s: fingerprint %s differs from the run's first sweep %s", label, fp, g.want)
	}
	return nil
}

func runSweep(cfg runConfig) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var scens []replay.Scenario
	setup, err := repeatSetup(func() (func(), error) {
		var err error
		scens, err = sweepSetup(cfg)
		return func() {}, err
	})
	if err != nil {
		return out, err
	}
	gate, err := newSweepGate(cfg)
	if err != nil {
		return out, err
	}
	workers := runtime.NumCPU()
	out.e2e["setup_s"] = setup

	if !cfg.trace {
		// Whole sweeps only: a sweep starts while the previous one's
		// duration still fits in the window. The host-speed kernel runs
		// between sweeps.
		start := time.Now()
		// A tenant waits for the whole table, so a sweep is the unit of
		// latency; the rate is the median over sweeps.
		var rates, sweepMS []float64
		var last time.Duration
		for full := 1; full == 1 || time.Since(start)+last <= cfg.window; full++ {
			cfg.speed.sample()
			t0 := time.Now()
			tab := experiment.Runner{Workers: workers}.Run("library", scens)
			last = time.Since(t0)
			out.attempted += int64(len(tab.Rows))
			if err := gate.check(fmt.Sprintf("sweep %d", full), tab); err != nil {
				return out, err
			}
			rates = append(rates, float64(len(tab.Rows))/last.Seconds())
			sweepMS = append(sweepMS, ms(last))
		}
		cfg.speed.sample()
		out.e2e["throughput_per_s"] = median(rates)
		out.e2e["latency_ms_p50"] = quantile(sweepMS, 0.5)
		out.e2e["max_rss_mb"] = peakRSSMB()
		return out, nil
	}

	// Traced run: one untraced pool sweep, the same sweep with spans
	// from the Runner's hooks, then a serial sweep that times each layer
	// of every cell separately. All three must agree on the table.
	tr := newTracer()
	t0 := time.Now()
	tab := experiment.Runner{Workers: workers}.Run("library", scens)
	plain := time.Since(t0)
	if err := gate.check("untraced sweep", tab); err != nil {
		return out, err
	}

	traced, ctls, err := tracedPoolSweep(tr, scens, workers)
	if err != nil {
		return out, err
	}
	if err := gate.check("traced sweep", traced); err != nil {
		return out, err
	}
	var busy time.Duration
	for _, r := range traced.Rows {
		busy += r.Elapsed
	}
	out.layers["experiment.pool_busy_ratio"] = busy.Seconds() / (traced.Elapsed.Seconds() * float64(traced.Workers))
	out.layers["trace.overhead_ratio"] = traced.Elapsed.Seconds() / plain.Seconds()
	var sc rjms.SchedCounters
	for _, c := range ctls {
		cc := c.SchedCounters()
		sc.EventsFired += cc.EventsFired
		sc.Passes += cc.Passes
		sc.PassesSkipped += cc.PassesSkipped
		sc.ProjectionMemoHits += cc.ProjectionMemoHits
		sc.ProjectionMemoMiss += cc.ProjectionMemoMiss
	}
	out.layers["simengine.events"] = float64(sc.EventsFired)
	out.layers["rjms.pass_skip_ratio"] = ratio(float64(sc.PassesSkipped), float64(sc.Passes))
	out.layers["power.memo_hit_ratio"] = ratio(float64(sc.ProjectionMemoHits), float64(sc.ProjectionMemoHits+sc.ProjectionMemoMiss))

	serial, err := serialSweep(tr, scens, out.layers)
	if err != nil {
		return out, err
	}
	if err := gate.check("serial traced sweep", serial); err != nil {
		return out, err
	}
	out.attempted = int64(3 * len(scens))
	out.layers["trace.generate_ms"] = median(tr.durations("trace.generate"))
	out.layers["rjms.build_ms"] = median(tr.durations("rjms.build"))
	out.layers["core.reserve_ms"] = median(tr.durations("core.reserve"))
	out.layers["rjms.advance_ms"] = median(tr.durations("rjms.advance"))
	return out, finishTrace(cfg, tr)
}

// tracedPoolSweep runs the sweep on the worker pool with a span per
// cell, split at the Observe hook into the controller build and the
// reservation plus replay. It returns every cell's controller for the
// engine counters, read after the pool has drained.
func tracedPoolSweep(tr *Tracer, scens []replay.Scenario, workers int) (experiment.Table, []*rjms.Controller, error) {
	ctls := make([]*rjms.Controller, len(scens))
	built := make([]time.Time, len(scens))
	r := experiment.Runner{
		Workers: workers,
		Observe: func(i int, _ replay.Scenario, ctl *rjms.Controller) {
			ctls[i], built[i] = ctl, time.Now()
		},
		OnResult: func(_, _ int, row experiment.Result) {
			end := time.Now()
			start := end.Add(-row.Elapsed)
			key := "cell" + strconv.Itoa(row.Index)
			root := tr.Record("experiment.cell", key, 0, start, end)
			if b := built[row.Index]; !b.IsZero() {
				tr.Record("replay.build", key, root, start, b)
				tr.Record("replay.run", key, root, b, end)
			}
		},
	}
	tab := r.Run("library", scens)
	for i, c := range ctls {
		if c == nil {
			return tab, nil, fmt.Errorf("cell %s never built a controller", scens[i].Name)
		}
	}
	return tab, ctls, nil
}

// serialSweep replays every cell on this goroutine through the same
// public steps replay.Run takes — generate, build, reserve, start,
// advance, finish — with a span around each and memory statistics
// around each cell.
func serialSweep(tr *Tracer, scens []replay.Scenario, layers map[string]float64) (experiment.Table, error) {
	tab := experiment.Table{Name: "library", Workers: 1, Rows: make([]experiment.Result, len(scens))}
	var allocBytes, allocs, events uint64
	var advance time.Duration
	cpu0 := readCPU()
	start := time.Now()
	for i, sc := range scens {
		key := "serial" + strconv.Itoa(i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		root := tr.Start("serial.cell", key, 0)

		sp := tr.Start("trace.generate", key, root)
		wl := sc.Workload
		wl.Cores = sc.Machine().Cores()
		jobs, err := trace.Generate(wl)
		tr.End(sp)
		if err != nil {
			return tab, fmt.Errorf("%s: %w", sc.Name, err)
		}
		withJobs := sc
		withJobs.Jobs = jobs
		sp = tr.Start("rjms.build", key, root)
		ctl, cleanup, err := replay.Build(withJobs)
		tr.End(sp)
		if err != nil {
			return tab, fmt.Errorf("%s: %w", sc.Name, err)
		}
		res := replay.Result{Scenario: sc, MaxPower: ctl.Cluster().MaxPower(), Cores: ctl.Cluster().Cores()}
		if sc.Capped() {
			from, to := sc.Window()
			sp = tr.Start("core.reserve", key, root)
			res.Plan, err = ctl.ReservePowerCap(from, to, power.CapFraction(sc.CapFraction, ctl.Cluster().MaxPower()))
			tr.End(sp)
			if err != nil {
				cleanup()
				return tab, fmt.Errorf("%s: %w", sc.Name, err)
			}
		}
		sp = tr.Start("rjms.advance", key, root)
		a0 := time.Now()
		err = ctl.Start(sc.Duration())
		if err == nil {
			err = ctl.Advance(sc.Duration())
		}
		if err == nil {
			res.Summary = ctl.Finish()
			res.Samples = ctl.Samples()
		}
		advance += time.Since(a0)
		tr.End(sp)
		events += ctl.SchedCounters().EventsFired
		cleanup()
		if err != nil {
			return tab, fmt.Errorf("%s: %w", sc.Name, err)
		}
		tr.End(root)
		tab.Rows[i] = experiment.Result{Result: res, Index: i, Elapsed: time.Since(t0)}
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
	}
	tab.Elapsed = time.Since(start)
	n := float64(len(scens))
	layers["experiment.serial_cells_per_s"] = n / tab.Elapsed.Seconds()
	layers["rjms.alloc_mb_per_cell"] = float64(allocBytes) / (1 << 20) / n
	layers["rjms.allocs_per_cell"] = float64(allocs) / n
	layers["runtime.gc_cpu_fraction"] = gcFraction(cpu0, readCPU())
	layers["rjms.ns_per_event"] = ratio(float64(advance.Nanoseconds()), float64(events))
	return tab, nil
}

// repeatSetup runs a workload's set-up five times and returns the
// median duration in seconds. Each attempt returns a teardown; all but
// the last attempt's state are torn down at once, the last one is kept
// for the measured window.
func repeatSetup(setup func() (teardown func(), err error)) (float64, error) {
	const attempts = 5
	var secs []float64
	for i := 0; i < attempts; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < attempts-1 {
			teardown()
		}
	}
	return median(secs), nil
}

// finishTrace prints the span summary and writes the spans out.
func finishTrace(cfg runConfig, tr *Tracer) error {
	tr.writeSummary(cfg.log)
	if cfg.spanFile == "" {
		return nil
	}
	if err := tr.writeFile(cfg.spanFile); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "# spans written to %s\n", cfg.spanFile)
	return nil
}
