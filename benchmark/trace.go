package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed region of the benchmark's own code around a call into
// a layer. Spans of one cell share its id; parent is an index into the
// tracer's span list, -1 for a cell span.
type span struct {
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the spans of the traced pass in memory; they are written
// out when the workload ends.
type tracer struct {
	mu    sync.Mutex // a cell runs on its own goroutine under the watchdog
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) beginCell(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: "cell", Cell: id, Parent: -1, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Cell: t.spans[parent].Cell, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Children never overlap here: one goroutine opens and
// closes them in sequence.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	byName := map[string]int64{}
	for i, s := range t.spans {
		byName[s.Name] += self[i]
	}
	return byName
}

// write stores the spans and the perfmon event counts of the traced pass.
func (t *tracer) write(dir, workload string, events map[string]uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload      string            `json:"workload"`
		Spans         []span            `json:"spans"`
		PerfmonEvents map[string]uint64 `json:"perfmon_events"`
	}{workload, t.spans, events}
	raw, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}
