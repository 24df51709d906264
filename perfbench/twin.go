package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/federation"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/rjms"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/twin"
)

// twinSessions is the cycle of distinct sessions a run repeats; each
// has its own reference digest at the default seed.
const twinSessions = 4

// twinInput is one session's spec plus the mutation script queued
// before Run.
type twinInput struct {
	key  string
	spec twin.Spec
	muts []twin.Mutation
}

// twinInputs builds the session cycle: four DVFS members on 2 racks
// (one bursty, three light library kinds) under demand division and a
// diurnal budget signal, 300 s epochs over 48 virtual hours, with a
// mutation script of hourly budget changes and node failure/repair
// pairs pinned to boundaries. The workload seed picks the failed
// nodes; traces, budgets and timing are the same at every seed.
// (Seed-derived traces and budget orders moved epochs/s by up to a
// fifth between seeds, more than the benchmark's bounds allow.)
func twinInputs(seed int64, tiny bool) []twinInput {
	horizon := int64(48 * 3600)
	if tiny {
		horizon = 4 * 3600
	}
	light := []string{"smalljob", "medianjob", "diurnal", "heavytail"}
	nodes := replay.Scenario{ScaleRacks: 2}.Machine().Nodes()
	out := make([]twinInput, twinSessions)
	for k := range out {
		rng := rand.New(rand.NewSource(deriveSeed(seed, int64(1000+k))))
		members := []twin.MemberSpec{{
			Name:     "bursty",
			Workload: sim.WorkloadSpec{Kind: "bursty", Seed: deriveSeed(defaultSeed, int64(100*k)), DurationSec: horizon, LoadFactor: 1},
			Policy:   "DVFS", Racks: 2,
		}}
		for j := 0; j < 3; j++ {
			kind := light[(k+j)%len(light)]
			members = append(members, twin.MemberSpec{
				Name:     kind,
				Workload: sim.WorkloadSpec{Kind: kind, Seed: deriveSeed(defaultSeed, int64(100*k+j+1)), DurationSec: horizon, LoadFactor: 0.5},
				Policy:   "DVFS", Racks: 2,
			})
		}
		spec := twin.Spec{
			Name:              "bench" + strconv.Itoa(k),
			Members:           members,
			GlobalCapFraction: 0.6,
			Division:          "demand",
			EpochSec:          300,
			HorizonSec:        horizon,
			Signal:            &signal.Spec{Kind: "diurnal", Mean: 0.85, Amplitude: 0.15},
		}
		var muts []twin.Mutation
		// Hourly budgets cycle through the same levels at every seed.
		hours := int(horizon/3600) - 1
		for i := 0; i < hours; i++ {
			level := (i*7 + k) % hours
			muts = append(muts, twin.Mutation{Op: twin.OpSetBudget, AtSec: int64(i+1) * 3600, BudgetFraction: 0.45 + 0.3*float64(level)/float64(hours)})
		}
		// Every six hours one node fails for two hours; the seed picks
		// which member and node, the timing is the same at every seed.
		for fail := int64(3600); fail+2*3600 < horizon; fail += 6 * 3600 {
			m, n := rng.Intn(len(members)), rng.Intn(nodes)
			name := members[m].Name
			muts = append(muts,
				twin.Mutation{Op: twin.OpFailNode, AtSec: fail, Name: name, Node: n},
				twin.Mutation{Op: twin.OpRepairNode, AtSec: fail + 2*3600, Name: name, Node: n})
		}
		out[k] = twinInput{key: "session" + strconv.Itoa(k), spec: spec, muts: muts}
	}
	return out
}

// sessionResult is what one session run produced.
type sessionResult struct {
	epochs int
	digest string
	build  time.Duration
	run    time.Duration
	// intervals are the host times between consecutive boundaries;
	// mutated marks the boundaries at which a mutation applied.
	intervals []float64
	mutated   []bool
	// Traced only: engine counters, telemetry appends and the member
	// states recorded at each boundary.
	counters rjms.SchedCounters
	appends  int64
	appendNS int64
	states   [][]federation.MemberState
	budgets  []power.Watts
}

// timedSink times every telemetry append into the tsdb run.
type timedSink struct {
	next     *tsdb.Run
	n, total int64
}

func (s *timedSink) Append(name string, t int64, v float64) error {
	t0 := time.Now()
	err := s.next.Append(name, t, v)
	s.total += time.Since(t0).Nanoseconds()
	s.n++
	return err
}

// runSession builds and runs one session to its horizon. With a tracer
// it records spans per build and boundary plus the layer counters.
func runSession(in twinInput, tr *Tracer) (sessionResult, error) {
	var res sessionResult
	run := tsdb.New(tsdb.Options{}).Run(in.key)
	timed := &timedSink{next: run}
	var ctls []*rjms.Controller
	var last time.Time
	applied := false
	runSpan := 0
	cfg := twin.Config{
		Sink: run,
		OnEpoch: func(st twin.Status) {
			now := time.Now()
			res.intervals = append(res.intervals, ms(now.Sub(last)))
			res.mutated = append(res.mutated, applied)
			if tr != nil {
				tr.Record("twin.epoch", in.key+"/"+strconv.FormatInt(st.VirtualTime, 10), runSpan, last, now)
				states := make([]federation.MemberState, len(st.Members))
				for i, m := range st.Members {
					states[i] = federation.MemberState{MaxPower: power.Watts(m.MaxPowerW), Draw: power.Watts(m.PowerW), PendingCores: m.PendingCores}
				}
				res.states = append(res.states, states)
				res.budgets = append(res.budgets, power.Watts(st.BudgetW))
			}
			last, applied = now, false
		},
		OnApplied: func(twin.Applied) { applied = true },
	}
	if tr != nil {
		cfg.Sink = timed
		cfg.Observe = func(_ string, ctl *rjms.Controller) { ctls = append(ctls, ctl) }
	}
	t0 := time.Now()
	sp := tr.Start("twin.build", in.key, 0)
	s, err := twin.New(in.spec, cfg)
	tr.End(sp)
	if err != nil {
		return res, fmt.Errorf("%s: %w", in.key, err)
	}
	for _, m := range in.muts {
		if err := s.Mutate(m); err != nil {
			return res, fmt.Errorf("%s: %w", in.key, err)
		}
	}
	res.build = time.Since(t0)
	last = time.Now()
	runSpan = tr.Start("twin.run", in.key, 0)
	err = s.Run(context.Background())
	tr.End(runSpan)
	res.run = time.Since(t0) - res.build
	res.epochs = len(res.intervals)
	if err != nil {
		return res, fmt.Errorf("%s: %w", in.key, err)
	}
	for _, a := range s.Log() {
		if a.Err != "" {
			return res, fmt.Errorf("%s: mutation %d (%s) failed: %s", in.key, a.Seq, a.Mutation.Op, a.Err)
		}
	}
	if got, want := len(s.Log()), len(in.muts); got != want {
		return res, fmt.Errorf("%s: %d of %d mutations applied", in.key, got, want)
	}
	b, err := json.Marshal(run.Snapshot())
	if err != nil {
		return res, fmt.Errorf("%s: snapshot: %w", in.key, err)
	}
	sum := sha256.Sum256(b)
	res.digest = hex.EncodeToString(sum[:])
	for _, c := range ctls {
		cc := c.SchedCounters()
		res.counters.EventsFired += cc.EventsFired
		res.counters.Passes += cc.Passes
		res.counters.PassesSkipped += cc.PassesSkipped
		res.counters.ProjectionMemoHits += cc.ProjectionMemoHits
		res.counters.ProjectionMemoMiss += cc.ProjectionMemoMiss
	}
	res.appends, res.appendNS = timed.n, timed.total
	return res, nil
}

// twinGate checks every completed session's telemetry digest: it must
// repeat within the run and, at the default seed, equal the reference
// digest generated from the repository.
type twinGate struct {
	ref  map[string]string
	seen map[string]string
}

func (g *twinGate) check(in twinInput, r sessionResult) error {
	if want, ok := g.seen[in.key]; ok && want != r.digest {
		return fmt.Errorf("%s: telemetry digest %s differs from the run's earlier %s", in.key, r.digest, want)
	}
	g.seen[in.key] = r.digest
	if g.ref != nil && g.ref[in.key] != r.digest {
		return fmt.Errorf("%s: telemetry digest %s differs from reference %q", in.key, r.digest, g.ref[in.key])
	}
	return nil
}

func runTwin(cfg runConfig) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	gate := &twinGate{seen: map[string]string{}}
	if cfg.seed == defaultSeed && !cfg.tiny {
		gate.ref = map[string]string{}
		for i := 0; i < twinSessions; i++ {
			key := "session" + strconv.Itoa(i)
			if cfg.digests[key] == "" {
				return out, fmt.Errorf("no reference digest for twin %s", key)
			}
			gate.ref[key] = cfg.digests[key]
		}
	}
	var inputs []twinInput
	setup, err := repeatSetup(func() (func(), error) {
		inputs = twinInputs(cfg.seed, cfg.tiny)
		for _, in := range inputs {
			if err := in.spec.Validate(); err != nil {
				return nil, err
			}
			// Building a session is the set-up a tenant pays before the
			// first boundary; the built sessions are discarded.
			if _, err := twin.New(in.spec, twin.Config{}); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return out, err
	}
	out.e2e["setup_s"] = setup

	if !cfg.trace {
		// Whole cycles only: a cycle of the four sessions starts while
		// the previous cycle's duration still fits in the window. The
		// host-speed kernel runs between sessions; a cycle is one unit.
		start := time.Now()
		var units perUnit
		var last time.Duration
		for cycle := 1; cycle == 1 || time.Since(start)+last <= cfg.window; cycle++ {
			t0 := time.Now()
			var run time.Duration
			var intervals []float64
			for _, in := range inputs {
				cfg.speed.sample()
				r, err := runSession(in, nil)
				if err != nil {
					return out, err
				}
				if err := gate.check(in, r); err != nil {
					return out, err
				}
				run += r.run
				intervals = append(intervals, r.intervals...)
			}
			last = time.Since(t0)
			out.attempted += int64(len(intervals))
			units.add(len(intervals), run, intervals)
		}
		cfg.speed.sample()
		units.report(out.e2e)
		out.e2e["max_rss_mb"] = peakRSSMB()
		return out, nil
	}

	// Traced run: the session cycle once untraced, then once traced;
	// each session's telemetry must match between the two.
	var plainEpochs int
	var plain time.Duration
	for _, in := range inputs {
		r, err := runSession(in, nil)
		if err != nil {
			return out, err
		}
		if err := gate.check(in, r); err != nil {
			return out, err
		}
		plainEpochs += r.epochs
		plain += r.build + r.run
	}
	tr := newTracer()
	var (
		tracedEpochs    int
		traced, runWall time.Duration
		intervals, mut  []float64
		sc              rjms.SchedCounters
		appends, apNS   int64
		divideUS        []float64
	)
	for _, in := range inputs {
		r, err := runSession(in, tr)
		if err != nil {
			return out, err
		}
		if err := gate.check(in, r); err != nil {
			return out, fmt.Errorf("traced run: %w", err)
		}
		tracedEpochs += r.epochs
		traced += r.build + r.run
		runWall += r.run
		intervals = append(intervals, r.intervals...)
		for i, m := range r.mutated {
			if m {
				mut = append(mut, r.intervals[i])
			}
		}
		sc.EventsFired += r.counters.EventsFired
		sc.Passes += r.counters.Passes
		sc.PassesSkipped += r.counters.PassesSkipped
		sc.ProjectionMemoHits += r.counters.ProjectionMemoHits
		sc.ProjectionMemoMiss += r.counters.ProjectionMemoMiss
		appends += r.appends
		apNS += r.appendNS
		divideUS = append(divideUS, timeDivide(r.states, r.budgets)...)
	}
	out.attempted = int64(plainEpochs + tracedEpochs)
	out.layers["trace.overhead_ratio"] = (float64(plainEpochs) / plain.Seconds()) / (float64(tracedEpochs) / traced.Seconds())
	out.layers["twin.build_ms"] = median(tr.durations("twin.build"))
	out.layers["twin.epoch_ms_p50"] = quantile(intervals, 0.5)
	out.layers["twin.epoch_ms_p99"] = quantile(intervals, 0.99)
	out.layers["twin.mutation_epoch_ms_p50"] = median(mut)
	out.layers["federation.divide_us"] = median(divideUS)
	out.layers["tsdb.append_ns"] = ratio(float64(apNS), float64(appends))
	out.layers["tsdb.points"] = float64(appends)
	out.layers["simengine.events"] = float64(sc.EventsFired)
	out.layers["rjms.ns_per_event"] = ratio(float64(runWall.Nanoseconds()), float64(sc.EventsFired))
	out.layers["rjms.pass_skip_ratio"] = ratio(float64(sc.PassesSkipped), float64(sc.Passes))
	out.layers["power.memo_hit_ratio"] = ratio(float64(sc.ProjectionMemoHits), float64(sc.ProjectionMemoHits+sc.ProjectionMemoMiss))
	return out, finishTrace(cfg, tr)
}

// timeDivide re-times the broker's division on the member states
// recorded at each boundary, returning microseconds per call.
func timeDivide(states [][]federation.MemberState, budgets []power.Watts) []float64 {
	const reps = 50
	out := make([]float64, 0, len(states))
	for i, st := range states {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			federation.Divide(replay.DivideDemand, budgets[i], st)
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3/reps)
	}
	return out
}

// recordTwinDigests writes the default seed's session digests — the
// reference the twin gate checks against.
func recordTwinDigests(path string) error {
	ref := map[string]string{}
	for _, in := range twinInputs(defaultSeed, false) {
		r, err := runSession(in, nil)
		if err != nil {
			return err
		}
		ref[in.key] = r.digest
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
