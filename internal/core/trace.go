package core

import (
	"sync"
	"sync/atomic"

	"hamster/internal/conscheck"
	"hamster/internal/memsim"
)

// TraceRecorder collects an execution trace for the consistency checker
// (internal/conscheck) — the §6 "formal mechanism for reasoning about
// memory consistency". Recording is global-order: events are appended
// under one mutex, so the trace order is consistent with the
// synchronization that actually happened.
type TraceRecorder struct {
	mu     sync.Mutex
	events []conscheck.Event
}

// Events returns the recorded trace.
func (t *TraceRecorder) Events() []conscheck.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]conscheck.Event, len(t.events))
	copy(out, t.events)
	return out
}

func (t *TraceRecorder) record(ev conscheck.Event) {
	t.mu.Lock()
	ev.Seq = len(t.events)
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// tracer is attached to the runtime; nil means tracing is off (the hot
// path pays one atomic load).
type tracerSlot = atomic.Pointer[TraceRecorder]

// StartTrace enables consistency tracing and returns the recorder. Call
// before the traced parallel phase; tracing is intended for
// verification-sized runs.
func (rt *Runtime) StartTrace() *TraceRecorder {
	t := &TraceRecorder{}
	rt.tracer.Store(t)
	return t
}

// StopTrace disables tracing and returns the recorder (nil if tracing was
// never started).
func (rt *Runtime) StopTrace() *TraceRecorder {
	t := rt.tracer.Swap(nil)
	return t
}

// CheckConsistency stops tracing and runs the conscheck analyses over the
// recorded trace.
func (rt *Runtime) CheckConsistency() conscheck.Report {
	t := rt.StopTrace()
	if t == nil {
		return conscheck.Report{}
	}
	return conscheck.Analyze(t.Events(), rt.Nodes())
}

// traceAccess records one word access if tracing is on.
func (e *Env) traceAccess(kind conscheck.Kind, a memsim.Addr) {
	t := e.rt.tracer.Load()
	if t == nil {
		return
	}
	t.record(conscheck.Event{
		Node: e.id,
		Kind: kind,
		Addr: a - a%memsim.WordSize,
	})
}

// traceBlock records a block access as its per-word events if tracing is
// on — the checker sees exactly the trace the equivalent word loop would
// produce, so block accesses participate in race detection word by word.
func (e *Env) traceBlock(kind conscheck.Kind, a memsim.Addr, words int) {
	t := e.rt.tracer.Load()
	if t == nil {
		return
	}
	a -= a % memsim.WordSize
	for i := 0; i < words; i++ {
		t.record(conscheck.Event{
			Node: e.id,
			Kind: kind,
			Addr: a + memsim.Addr(i*memsim.WordSize),
		})
	}
}

// traceSpan records a byte-span access as one event per word the span
// overlaps, so a race on any word inside the span is visible to the
// checker (an empty span touches nothing).
func (e *Env) traceSpan(kind conscheck.Kind, a memsim.Addr, n int) {
	if n > 0 {
		e.traceBlock(kind, a, (int(a%memsim.WordSize)+n+memsim.WordSize-1)/memsim.WordSize)
	}
}

// traceSync records a synchronization event if tracing is on.
func (e *Env) traceSync(kind conscheck.Kind, lock int) {
	t := e.rt.tracer.Load()
	if t == nil {
		return
	}
	t.record(conscheck.Event{Node: e.id, Kind: kind, Lock: lock})
}
