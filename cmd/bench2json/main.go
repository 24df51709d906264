// Command bench2json converts `go test -bench` text output (read from
// stdin) into a stable JSON document (written to stdout), so CI can
// archive benchmark results as machine-readable artifacts and track
// their trajectory across commits.
//
// Usage:
//
//	go test -run xxx -bench 'Sweep$' -benchtime 1x -benchmem . | bench2json > BENCH_sweep.json
//
// Standard units (ns/op, B/op, allocs/op) and custom b.ReportMetric
// units (configs, speedup, normWork, ...) all land in the per-benchmark
// metrics map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the JSON envelope. Goos, Goarch, Pkg, CPU, GoVersion and
// GOMAXPROCS record the host a report was measured on; Compare ignores
// them.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GoVersion is the toolchain bench2json runs under — the one that
	// built the benchmarks when it is invoked with `go run` beside the
	// `go test` it reads, as CI does.
	GoVersion string `json:"go_version,omitempty"`
	// GOMAXPROCS is the "-N" suffix go test appends to the first
	// benchmark name (no suffix means 1).
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` text output into a Report.
func Parse(r io.Reader) (Report, error) {
	rep := Report{GoVersion: runtime.Version(), Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseBenchLine(line)
		if err != nil {
			return rep, err
		}
		if len(rep.Benchmarks) == 0 {
			if _, rep.GOMAXPROCS = splitProcs(b.Name); rep.GOMAXPROCS == 0 {
				rep.GOMAXPROCS = 1
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, sc.Err()
}

// parseBenchLine parses one result line:
//
//	BenchmarkSweep/serial-8  1  9.3e8 ns/op  1.2e6 B/op  813 allocs/op  14 configs  1.0 speedup
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("bench2json: short benchmark line %q", line)
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bench2json: bad run count in %q: %v", line, err)
	}
	b := Benchmark{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bench2json: bad metric value in %q: %v", line, err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}

// allocTolerance is the allowed fractional allocs/op growth over the
// baseline. Allocation counts are exact and host-independent, unlike
// ns/op, so the gate is tight: only the worker pool's goroutine
// interleaving moves them between runs.
const allocTolerance = 0.02

// Compare checks rep against a baseline report: any benchmark present
// in both whose ns/op grew by more than tolerance (0.20 = +20%), or
// whose allocs/op grew by more than allocTolerance, is a regression.
// Benchmarks missing on either side are skipped (renames and new
// benchmarks are not regressions), as is a unit either side lacks.
// Single-pass CI timings are noisy, so the ns/op tolerance is
// deliberately generous. A zero allocs/op baseline admits no
// allocation at all.
func Compare(baseline, rep Report, tolerance float64) []string {
	base := map[string]map[string]float64{}
	for _, b := range baseline.Benchmarks {
		base[stripProcs(b.Name)] = b.Metrics
	}
	gates := []struct {
		unit string
		tol  float64
	}{
		{"ns/op", tolerance},
		{"allocs/op", allocTolerance},
	}
	var regressions []string
	for _, b := range rep.Benchmarks {
		old, ok := base[stripProcs(b.Name)]
		if !ok {
			continue
		}
		for _, g := range gates {
			was, ok := old[g.unit]
			now, ok2 := b.Metrics[g.unit]
			if !ok || !ok2 {
				continue
			}
			if now > was*(1+g.tol) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%, gate +%.0f%%)",
						b.Name, g.unit, was, now, (now/was-1)*100, g.tol*100))
			}
		}
	}
	return regressions
}

// stripProcs drops the "-<GOMAXPROCS>" suffix go test appends to
// benchmark names, so baselines compare across machines with different
// core counts (and baselines recorded at GOMAXPROCS=1, which carry no
// suffix at all).
func stripProcs(name string) string {
	base, _ := splitProcs(name)
	return base
}

// splitProcs splits a benchmark name into its base and the
// "-<GOMAXPROCS>" suffix value (0 when there is none).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name, 0
	}
	procs := 0
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name, 0
		}
		procs = procs*10 + int(c-'0')
	}
	return name[:i], procs
}

func main() {
	baselinePath := flag.String("baseline", "", fmt.Sprintf(
		"compare against this baseline JSON report; exit 1 on a ns/op regression beyond -tolerance or an allocs/op growth beyond +%.0f%%",
		allocTolerance*100))
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op growth vs the baseline")
	flag.Parse()

	rep, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var baseline Report
		err = json.NewDecoder(f).Decode(&baseline)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: bad baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		if regs := Compare(baseline, rep, *tolerance); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "bench2json: %d benchmark regression(s) vs %s:\n", len(regs), *baselinePath)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench2json: no ns/op regression beyond +%.0f%% and no allocs/op growth beyond +%.0f%% vs %s\n",
			*tolerance*100, allocTolerance*100, *baselinePath)
	}
}
