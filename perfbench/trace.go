package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Names are
// "<layer>.<call>" so self time rolls up by layer. Attrs hold counters read
// at the span's boundaries, so per-layer ratios are measured where the work
// happens.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site. A paused
// tracer records nothing either; traced runs pause it on alternate rounds
// to measure tracing overhead against untraced rounds of the same run.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	paused bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setPaused switches recording off (true) or on (false).
func (t *tracer) setPaused(p bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.paused = p
	t.mu.Unlock()
}

// begin opens a span and returns its id, 0 when nothing is recorded.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id with the counters read at its end.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	s.Attrs = attrs
	t.mu.Unlock()
}

// record adds a span whose start and end were measured by the caller, for
// calls timed elsewhere, and returns its id, 0 when nothing is recorded.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children that overlap each other,
// as concurrent calls do, count once. Unclosed spans have no self time.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary rolls spans up by name.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		sum := out[s.Name]
		sum.Count++
		sum.TotalS += float64(s.End-s.Start) / 1e9
		sum.SelfS += float64(self[i]) / 1e9
		out[s.Name] = sum
	}
	return out
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Env      map[string]any         `json:"env"`
	Overhead map[string]float64     `json:"overhead"`
	Summary  map[string]spanSummary `json:"summary"`
	Spans    []span                 `json:"spans"`
}

// write dumps the spans and their summary to path.
func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	tf.Summary = summarize(tf.Spans)
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
