package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestTinyRunsEmitEveryMetric runs a tiny size of every workload, plain
// and traced, and checks that each emits every metric BENCHMARK.json
// names with its unit, and that every per-layer metric is measured on
// at least one workload.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[d.Name] = d.Unit
	}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		fn := workloads[w.Name]
		if fn == nil {
			t.Fatalf("BENCHMARK.json names workload %q the command does not run", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 5, window: 4 * time.Second, trace: traced, tiny: true, log: io.Discard}
			out, err := fn(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res, err := buildResult(spec, out, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := len(spec.EndToEnd)
			if traced {
				want = len(spec.PerLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), want)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] || m.Unit == "" {
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, name, m.Unit, units[name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
				if traced && m.Value != 0 {
					measured[name] = true
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
		}
	}
	// The run queue may stay empty at the tiny size's load.
	mayBeZero := map[string]bool{"service.queue_depth_max": true}
	for _, d := range spec.PerLayer {
		if !measured[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", d.Name)
		}
	}
}

// TestTwinReferenceDigestGate shows the twin gate bites: the default
// seed passes against the checked-in reference digests and fails once
// one of them is corrupted.
func TestTwinReferenceDigestGate(t *testing.T) {
	ref, err := loadDigests(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: defaultSeed, window: 3 * time.Second, digests: ref, log: io.Discard}
	if _, err := runTwin(cfg); err != nil {
		t.Fatalf("reference digests: %v", err)
	}
	bad := map[string]string{}
	for k, v := range ref {
		bad[k] = v
	}
	bad["session0"] = strings.Repeat("0", 64)
	cfg.digests = bad
	_, err = runTwin(cfg)
	if err == nil || !strings.Contains(err.Error(), "differs from reference") {
		t.Fatalf("corrupted reference digest: got %v, want a reference mismatch", err)
	}
}
