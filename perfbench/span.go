package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Key carries the id shared by
// every span of one cell, session or request; Parent is the span that
// caused this one (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span now and returns its id; End closes it.
func (t *Tracer) Start(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record adds a span whose interval is already known.
func (t *Tracer) Record(name, key string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// durations returns the closed spans named name, in milliseconds.
func (t *Tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// SpanSummary aggregates every span of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func (t *Tracer) summary() []SpanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]Span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*SpanSummary{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		sum := byName[s.Name]
		if sum == nil {
			sum = &SpanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalMS += float64(d) / 1e6
		sum.SelfMS += float64(d-covered(s, children[s.ID])) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
	}
	out := make([]SpanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.P50MS = quantile(durs[name], 0.5)
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeSummary prints one line per span name.
func (t *Tracer) writeSummary(w io.Writer) {
	for _, s := range t.summary() {
		fmt.Fprintf(w, "# span %-28s count=%-7d total_ms=%-12.3f self_ms=%-12.3f p50_ms=%.4f\n",
			s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50MS)
	}
}

// writeFile dumps every span plus the summary as JSON.
func (t *Tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sum := t.summary()
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Summary []SpanSummary `json:"summary"`
		Spans   []Span        `json:"spans"`
	}{sum, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
