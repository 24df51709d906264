// Command perfbench is the repository benchmark: four workloads — the
// paper's library sweep, a live twin in lockstep, and mixed tenant
// traffic against a simd daemon and against a fleet gateway — each
// measured end to end, or layer by layer in a traced run. Every run
// checks its outputs and exits non-zero, printing no result, when a
// correctness gate fails.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload library_sweep --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Metric names and units come
// from BENCHMARK.json; perfbench/README.md maps each metric to its
// layer and workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Paths, relative to the repository root the command runs from.
const (
	specPath   = "BENCHMARK.json"
	digestPath = "perfbench/testdata/twin_digests.json"
	spanDir    = ".bench_build/spans"
)

const (
	// defaultSeed is the seed the twin reference digests were recorded
	// at.
	defaultSeed = 1
	// heldOutSeed is never used while tuning the program; a claimed
	// gain must also hold at this seed.
	heldOutSeed = 7919
)

// runConfig is what one workload run needs besides its seed.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	// tiny shrinks every input to a few cells, epochs or requests (the
	// self-test size).
	tiny bool
	// digests are the twin reference digests checked at the default
	// seed.
	digests map[string]string
	// speed samples the host-speed kernel between units of work; the
	// untraced run's rates and latencies are scaled by its factor.
	speed *hostSpeed
	// spanFile, when set, receives the traced run's spans.
	spanFile string
	log      io.Writer
}

// outcome is what a workload run measured. e2e is filled by untraced
// runs, layers by traced runs.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
}

type workloadFunc func(cfg runConfig) (outcome, error)

var workloads = map[string]workloadFunc{
	"library_sweep": runSweep,
	"twin_lockstep": runTwin,
	"simd_mixed":    runSimdMixed,
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the command reads: the
// workload names and every metric's name and unit.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult names every metric the spec lists for this mode. A
// metric the spec lists but the workload did not measure is an error
// on the end-to-end side; on the per-layer side it reads 0, meaning
// the workload does not exercise that layer.
func buildResult(spec benchSpec, out outcome, traced bool) (result, error) {
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs, got := spec.EndToEnd, out.e2e
	if traced {
		defs, got = spec.PerLayer, out.layers
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := got[d.Name]
		if !ok && !traced {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if !known[name] {
			return res, fmt.Errorf("measured metric %s is not listed in BENCHMARK.json", name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// hostStamp identifies where and on what a result was measured, so
// results from different hosts or commits are never compared.
type hostStamp struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	Commit      string `json:"commit"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commitID is the git commit when the tree is a repository, else a
// digest of the Go sources and module files under root.
func commitID(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", defaultSeed, "workload seed; inputs are derived from it")
	seconds := flag.Int("seconds", 25, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	record := flag.Bool("record-digests", false, "write the default seed's twin digests to "+digestPath+" and exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *record {
		if err := recordTwinDigests(digestPath); err != nil {
			fail(err)
		}
		return
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fail(err)
	}
	fn, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == *workload
	}
	if !listed {
		fail(fmt.Errorf("workload %q is not listed in %s", *workload, specPath))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	digests, err := loadDigests(digestPath)
	if err != nil {
		fail(err)
	}

	stamp := hostStamp{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commitID("."), Workload: *workload,
		Seed: *seed, HeldOutSeed: heldOutSeed, Seconds: *seconds, Trace: *trace == 1,
	}
	sb, _ := json.Marshal(stamp)
	fmt.Printf("# host %s\n", sb)

	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		digests: digests, log: os.Stdout, speed: &hostSpeed{},
	}
	if cfg.trace {
		cfg.spanFile = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.spans.json", *workload, *seed))
	}
	c0, t0 := readHostCPU(), time.Now()
	out, err := fn(cfg)
	c1, wall := readHostCPU(), time.Since(t0).Seconds()
	fmt.Printf("# run wall_s=%.3f cpu_s=%.3f steal_s=%.3f\n", wall, c1.proc-c0.proc, c1.steal-c0.steal)
	if err != nil {
		fail(err)
	}
	if !cfg.trace {
		normalize(out.e2e, cfg.speed.factor())
	}
	res, err := buildResult(spec, out, cfg.trace)
	if err != nil {
		fail(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}
