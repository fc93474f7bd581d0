package perfmon

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hamster/internal/vclock"
)

func TestRecorderDisabledDropsEverything(t *testing.T) {
	r := New(2, 8)
	r.Record(0, EvPageFault, 10, 5, 1, 2)
	if r.Len(0) != 0 {
		t.Fatalf("disabled recorder retained %d events", r.Len(0))
	}
	r.Enable()
	r.Record(0, EvPageFault, 10, 5, 1, 2)
	if r.Len(0) != 1 {
		t.Fatalf("enabled recorder retained %d events, want 1", r.Len(0))
	}
	r.Disable()
	r.Record(0, EvPageFault, 20, 5, 1, 2)
	if r.Len(0) != 1 {
		t.Fatalf("re-disabled recorder retained %d events, want 1", r.Len(0))
	}
}

func TestRecorderKeepsFirstNAndCountsDrops(t *testing.T) {
	r := New(1, 4)
	r.Enable()
	for i := 0; i < 10; i++ {
		r.Record(0, EvMsgSend, vclock.Time(i), 0, uint64(i), 0)
	}
	if got := r.Len(0); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(0); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	for i, ev := range r.Events(0) {
		if ev.Arg1 != uint64(i) {
			t.Fatalf("event %d has Arg1 %d; first-N retention broken", i, ev.Arg1)
		}
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	const (
		workers = 8
		perW    = 500
	)
	r := New(1, workers*perW)
	r.Enable()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				r.Record(0, EvService, vclock.Time(i), 1, uint64(w), uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len(0); got != workers*perW {
		t.Fatalf("Len = %d, want %d", got, workers*perW)
	}
	if got := r.Dropped(0); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	// Every slot must have been written exactly once: count per worker.
	perWorker := make(map[uint64]int)
	for _, ev := range r.Events(0) {
		perWorker[ev.Arg1]++
	}
	for w := uint64(0); w < workers; w++ {
		if perWorker[w] != perW {
			t.Fatalf("worker %d wrote %d retained events, want %d", w, perWorker[w], perW)
		}
	}
}

func TestRecorderReset(t *testing.T) {
	r := New(2, 4)
	r.Enable()
	r.Record(0, EvBarrier, 1, 0, 0, 0)
	r.Record(1, EvBarrier, 1, 0, 0, 0)
	r.ResetNode(0)
	if r.Len(0) != 0 || r.Len(1) != 1 {
		t.Fatalf("ResetNode: Len = %d/%d, want 0/1", r.Len(0), r.Len(1))
	}
	r.Reset()
	if r.Len(1) != 0 {
		t.Fatalf("Reset left %d events on node 1", r.Len(1))
	}
	if !r.Enabled() {
		t.Fatal("Reset changed the enabled state")
	}
}

// A recorder that is never enabled costs its ring headers, not its rings:
// a 64-node runtime boots with one attached.
func TestNewAllocatesNoRings(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := New(64, 0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New(64, 0) allocated %d bytes, want < 64 KiB", got)
	}
	for n := 0; n < r.Nodes(); n++ {
		if r.Len(n) != 0 || r.Dropped(n) != 0 || len(r.Events(n)) != 0 {
			t.Fatalf("never-enabled node %d: Len %d, Dropped %d, %d events", n, r.Len(n), r.Dropped(n), len(r.Events(n)))
		}
	}
	r.Reset()
	if r.Enabled() {
		t.Fatal("Reset enabled a never-enabled recorder")
	}
}

// Rings are allocated once and never replaced: turning recording off and
// on again keeps what was recorded and allocates nothing.
func TestReenableKeepsEventsWithoutAllocating(t *testing.T) {
	r := New(2, 8)
	r.Enable()
	r.Record(0, EvBarrier, 1, 0, 11, 0)
	r.Record(1, EvBarrier, 2, 0, 12, 0)
	r.Disable()
	if allocs := testing.AllocsPerRun(10, r.Enable); allocs != 0 {
		t.Fatalf("re-Enable allocated %.2f objects, want 0", allocs)
	}
	r.Record(0, EvBarrier, 3, 0, 13, 0)
	evs := r.Events(0)
	if len(evs) != 2 || evs[0].Arg1 != 11 || evs[1].Arg1 != 13 || r.Len(1) != 1 {
		t.Fatalf("after Disable/Enable node 0 holds %+v, node 1 %d events", evs, r.Len(1))
	}
}

// Enable may race with Record on other goroutines: a Record that sees the
// recorder on must see its ring (run under -race).
func TestEnableRacesRecord(t *testing.T) {
	const workers, perW = 4, 2000
	r := New(workers, workers*perW)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				r.Record(w, EvService, vclock.Time(i), 0, uint64(w), uint64(i))
			}
		}(w)
	}
	r.Enable()
	wg.Wait()
	for w := 0; w < workers; w++ {
		for _, ev := range r.Events(w) {
			if ev.Kind != EvService || ev.Arg1 != uint64(w) {
				t.Fatalf("node %d holds a torn event %+v", w, ev)
			}
		}
	}
}

func TestWriteChromeTraceStructure(t *testing.T) {
	r := New(2, 16)
	r.Enable()
	r.Record(0, EvPageFault, 100, 50, 7, 1)
	r.Record(0, EvBarrier, 200, 25, 0, 0)
	r.Record(1, EvLockAcquire, 150, 10, 3, 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
			Scope string  `json:"s"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var meta, slices, instants int
	for _, ev := range trace.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			slices++
		case "i":
			instants++
			if ev.Scope != "g" {
				t.Fatalf("instant marker %q has scope %q, want global", ev.Name, ev.Scope)
			}
			if !strings.HasPrefix(ev.Name, "barrier-epoch-") {
				t.Fatalf("unexpected instant marker %q", ev.Name)
			}
		}
	}
	if meta != 2 {
		t.Fatalf("got %d process_name records, want one per node (2)", meta)
	}
	if slices != 3 {
		t.Fatalf("got %d slices, want 3", slices)
	}
	if instants != 1 {
		t.Fatalf("got %d barrier markers, want 1", instants)
	}
}

func TestSummaryRowsSumExactly(t *testing.T) {
	bds := []vclock.Breakdown{
		{Compute: 100, Memory: 50, Protocol: 25, Network: 20, Stolen: 5},
		{Compute: 10, Network: 90},
	}
	s := Summary(bds)
	if !strings.Contains(s, "node") || !strings.Contains(s, "all") {
		t.Fatalf("summary missing header or total row:\n%s", s)
	}
	if !strings.Contains(s, "200ns") { // node 0 total
		t.Fatalf("summary missing node 0 total:\n%s", s)
	}
}

func TestEventSummaryCountsAndDrops(t *testing.T) {
	r := New(1, 2)
	r.Enable()
	r.Record(0, EvMsgSend, 1, 0, 0, 0)
	r.Record(0, EvMsgSend, 2, 0, 0, 0)
	r.Record(0, EvMsgSend, 3, 0, 0, 0) // dropped
	s := r.EventSummary()
	if !strings.Contains(s, "msg-send") || !strings.Contains(s, "(dropped)") {
		t.Fatalf("unexpected event summary:\n%s", s)
	}
}
