package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's resident-set high-water mark. Off Linux
// it falls back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuSample is the runtime's cumulative GC and total CPU time.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcFraction is the share of CPU time spent in GC between two samples.
func gcFraction(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hostCPU is the process's CPU time and the host's steal time, in
// seconds, read at one instant.
type hostCPU struct{ proc, steal float64 }

func readHostCPU() hostCPU {
	var h hostCPU
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.proc = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			if v, err := strconv.ParseFloat(f[8], 64); err == nil {
				h.steal = v / 100 // USER_HZ
			}
		}
	}
	return h
}

// perUnit keeps one rate and one latency sample set per unit of work (a
// cycle of twin sessions). A run reports medians across its units, so a
// burst of host noise moves one unit rather than the result.
type perUnit struct{ rate, p50 []float64 }

func (u *perUnit) add(n int, d time.Duration, latMS []float64) {
	u.rate = append(u.rate, float64(n)/d.Seconds())
	u.p50 = append(u.p50, quantile(latMS, 0.5))
}

func (u *perUnit) report(e2e map[string]float64) {
	e2e["throughput_per_s"] = median(u.rate)
	e2e["latency_ms_p50"] = median(u.p50)
}
