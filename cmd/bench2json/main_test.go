package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.00GHz
BenchmarkSweep/serial-8         	       1	938212345 ns/op	        14.0 configs	         1.000 speedup	 1202345 B/op	    8132 allocs/op
BenchmarkSweep/workers4-8       	       1	301298765 ns/op	        14.0 configs	         3.113 speedup	 1219876 B/op	    8190 allocs/op
PASS
ok  	repro	2.531s
`
	rep, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" || rep.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("header parsed wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSweep/serial-8" || b.Runs != 1 {
		t.Errorf("benchmark identity wrong: %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 938212345, "configs": 14, "speedup": 1,
		"B/op": 1202345, "allocs/op": 8132,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("%s = %v, want %v", unit, got, want)
		}
	}
	if rep.Benchmarks[1].Metrics["speedup"] != 3.113 {
		t.Errorf("second speedup = %v", rep.Benchmarks[1].Metrics["speedup"])
	}
}

func TestParseRejectsCorruptLines(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX nope 12 ns/op\n")); err == nil {
		t.Error("bad run count accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX 1 abc ns/op\n")); err == nil {
		t.Error("bad metric accepted")
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := Parse(strings.NewReader("PASS\nok repro 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("benchmarks = %+v, want none", rep.Benchmarks)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSweep/serial", Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "BenchmarkSweep/max", Metrics: map[string]float64{"ns/op": 500}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 100}},
	}}
	current := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSweep/serial", Metrics: map[string]float64{"ns/op": 1150}}, // +15%: ok
		{Name: "BenchmarkSweep/max", Metrics: map[string]float64{"ns/op": 650}},     // +30%: regression
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 9999}},          // not in baseline: skipped
	}}
	regs := Compare(baseline, current, 0.20)
	if len(regs) != 1 {
		t.Fatalf("Compare found %d regressions, want 1: %v", len(regs), regs)
	}
	if !strings.Contains(regs[0], "BenchmarkSweep/max") {
		t.Errorf("regression names the wrong benchmark: %s", regs[0])
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSweep/serial", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 400000}},
		{Name: "BenchmarkSchedulePass", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 20000}},
		{Name: "BenchmarkFig8PolicySweep", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 600000}},
		{Name: "BenchmarkEngineStep", Metrics: map[string]float64{"ns/op": 300, "allocs/op": 0}},
		{Name: "BenchmarkNoAllocs", Metrics: map[string]float64{"ns/op": 1000}},
	}}
	current := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSweep/serial-2", Metrics: map[string]float64{"ns/op": 900, "allocs/op": 406000}},   // +1.5%: ok
		{Name: "BenchmarkSchedulePass-2", Metrics: map[string]float64{"ns/op": 500, "allocs/op": 20601}},    // +3%, faster: regression
		{Name: "BenchmarkFig8PolicySweep-2", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 1000}}, // fewer: ok
		{Name: "BenchmarkEngineStep-2", Metrics: map[string]float64{"ns/op": 300, "allocs/op": 1}},          // any alloc over 0: regression
		{Name: "BenchmarkNoAllocs-2", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 5}},           // no baseline count: skipped
	}}
	regs := Compare(baseline, current, 0.20)
	if len(regs) != 2 {
		t.Fatalf("Compare found %d regressions, want 2: %v", len(regs), regs)
	}
	for i, name := range []string{"BenchmarkSchedulePass", "BenchmarkEngineStep"} {
		if !strings.Contains(regs[i], name) || !strings.Contains(regs[i], "allocs/op") {
			t.Errorf("regression %d = %q, want an allocs/op regression of %s", i, regs[i], name)
		}
	}
}

func TestCompareAllocsAtExactGateBoundary(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "B", Metrics: map[string]float64{"allocs/op": 1000}},
	}}
	for allocs, flagged := range map[float64]bool{1020: false, 1021: true} {
		current := Report{Benchmarks: []Benchmark{
			{Name: "B", Metrics: map[string]float64{"allocs/op": allocs}},
		}}
		if regs := Compare(baseline, current, 0.20); (len(regs) == 1) != flagged {
			t.Errorf("allocs/op 1000 -> %v: regressions %v, want flagged=%v", allocs, regs, flagged)
		}
	}
	// The allocation gate is fixed: widening the ns/op tolerance does
	// not loosen it.
	current := Report{Benchmarks: []Benchmark{
		{Name: "B", Metrics: map[string]float64{"allocs/op": 1100}},
	}}
	if regs := Compare(baseline, current, 5); len(regs) != 1 {
		t.Errorf("+10%% allocs/op passed under a wide ns/op tolerance: %v", regs)
	}
}

func TestCompareAtExactGateBoundary(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "B", Metrics: map[string]float64{"ns/op": 1000}},
	}}
	current := Report{Benchmarks: []Benchmark{
		{Name: "B", Metrics: map[string]float64{"ns/op": 1200}},
	}}
	// Exactly +20% is within the gate (strictly-greater fails).
	if regs := Compare(baseline, current, 0.20); len(regs) != 0 {
		t.Errorf("exact-boundary growth flagged: %v", regs)
	}
}

func TestCompareStripsProcsSuffix(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSweep/serial", Metrics: map[string]float64{"ns/op": 1000}},
	}}
	current := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSweep/serial-8", Metrics: map[string]float64{"ns/op": 5000}},
	}}
	if regs := Compare(baseline, current, 0.20); len(regs) != 1 {
		t.Errorf("suffixed name did not match its baseline: %v", regs)
	}
	// A trailing -N that is part of the name (not a procs suffix) still
	// strips only digits; non-digit suffixes are kept verbatim.
	if got := stripProcs("BenchmarkX/max"); got != "BenchmarkX/max" {
		t.Errorf("stripProcs mangled %q", got)
	}
	if got := stripProcs("BenchmarkX-16"); got != "BenchmarkX" {
		t.Errorf("stripProcs(-16) = %q", got)
	}
}

// TestParseStampsHost checks the host metadata: the toolchain bench2json
// runs under, and GOMAXPROCS from the first benchmark's "-N" suffix (no
// suffix is a GOMAXPROCS=1 run). Compare ignores both, so a baseline
// from another toolchain or core count gates the same way.
func TestParseStampsHost(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"BenchmarkSweep/serial-8   1  9000 ns/op\nBenchmarkX-4  1  5 ns/op\n", 8},
		{"BenchmarkSweep/serial   1  9000 ns/op\n", 1},
		{"PASS\n", 0},
	} {
		rep, err := Parse(strings.NewReader("cpu: Test CPU\n" + tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if rep.GOMAXPROCS != tc.want {
			t.Errorf("GOMAXPROCS of %q = %d, want %d", tc.in, rep.GOMAXPROCS, tc.want)
		}
		if rep.GoVersion != runtime.Version() {
			t.Errorf("GoVersion = %q, want %q", rep.GoVersion, runtime.Version())
		}
	}
	out, err := json.Marshal(Report{GoVersion: "go1.0", GOMAXPROCS: 2, Benchmarks: []Benchmark{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"go_version":"go1.0"`, `"gomaxprocs":2`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("JSON %s lacks %s", out, key)
		}
	}

	bench := []Benchmark{{Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 3}}}
	baseline := Report{GoVersion: "go1.21.0", GOMAXPROCS: 1, CPU: "old", Benchmarks: bench}
	current := Report{GoVersion: "go1.24.0", GOMAXPROCS: 64, CPU: "new", Benchmarks: []Benchmark{
		{Name: "BenchmarkX-64", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 3}},
	}}
	if regs := Compare(baseline, current, 0.20); len(regs) != 0 {
		t.Errorf("host metadata changed the verdict: %v", regs)
	}
}
