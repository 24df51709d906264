package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// speedKernel runs a fixed compute loop on every CPU for about d and
// returns its iterations per second. The loop uses no repository code
// and allocates nothing, so neither the code under test nor its heap
// changes the rate: it tracks only how fast this host runs right now.
func speedKernel(d time.Duration) float64 {
	n := runtime.NumCPU()
	counts := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [512]uint64
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			for time.Now().Before(deadline) {
				for i := range buf {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					buf[i] = x
				}
				slices.Sort(buf[:])
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / time.Since(start).Seconds()
}

// refKernelRate is speedKernel's typical rate on the 2-vCPU Xeon host
// the bounds in BENCHMARK.json were set on.
const refKernelRate = 52000.0

// hostSpeed collects speedKernel samples taken between the units of work
// of one run.
type hostSpeed struct{ rates []float64 }

func (h *hostSpeed) sample() {
	if h != nil {
		h.rates = append(h.rates, speedKernel(200*time.Millisecond))
	}
}

// factor is the host's mean speed over the run relative to the
// reference host (1 when nothing was sampled).
func (h *hostSpeed) factor() float64 {
	if h == nil || len(h.rates) == 0 {
		return 1
	}
	var sum float64
	for _, r := range h.rates {
		sum += r
	}
	return sum / float64(len(h.rates)) / refKernelRate
}

// normalize rescales the host-speed-dependent end-to-end metrics to the
// reference host: rates divide by the speed factor, times (latency and
// the CPU-bound set-up) multiply by it. Memory stays as measured. The
// measured values are printed first.
func normalize(e2e map[string]float64, f float64) {
	fmt.Printf("# host speed factor %.4f; as measured: throughput_per_s=%.6g latency_ms_p50=%.6g setup_s=%.6g\n",
		f, e2e["throughput_per_s"], e2e["latency_ms_p50"], e2e["setup_s"])
	e2e["throughput_per_s"] /= f
	e2e["latency_ms_p50"] *= f
	e2e["setup_s"] *= f
}
