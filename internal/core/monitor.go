package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hamster/internal/platform"
	"hamster/internal/vclock"
)

// samplerSlot holds the optionally attached external sampler.
type samplerSlot = atomic.Pointer[Sampler]

// Monitor is the performance-monitoring service (§4.3). Each module keeps
// its own statistics independently of what the substrate provides; the
// monitor exposes per-node reports and a reset service so that
// applications, run-time systems, or external tools can observe behavior
// in an architecture- and model-independent way.
type Monitor struct {
	e *Env
}

// calls returns how many service calls this node issued to a module since
// the last ResetAll.
func (m *Monitor) calls(mod Module) uint64 {
	return m.e.calls[mod].Load()
}

// ResetAll clears this node's complete monitoring state: every module call
// counter, the substrate's activity counters, and the node's recorded
// protocol events. Virtual clocks (and their category attribution) are
// never reset — they are the simulation's timeline, not monitoring state.
// Call while the node is quiescent (between phases or outside the run).
func (m *Monitor) ResetAll() {
	for i := Module(0); i < moduleCount; i++ {
		m.e.calls[i].Store(0)
	}
	m.e.rt.sub.ResetStats(m.e.id)
	if rec := m.e.rt.perf; rec != nil {
		rec.ResetNode(m.e.id)
	}
}

// timeBreakdown snapshots this node's virtual-time attribution. The
// category totals sum exactly to the node's clock: every nanosecond the
// simulation charged is tagged compute, memory, protocol, network, or
// stolen.
func (m *Monitor) timeBreakdown() vclock.Breakdown {
	return m.e.rt.sub.Clock(m.e.id).Breakdown()
}

// Substrate snapshots the base architecture's per-node counters (page
// faults, diffs, invalidations, remote accesses, ...). Call while the node
// is quiescent.
func (m *Monitor) Substrate() platform.Stats {
	return m.e.rt.sub.NodeStats(m.e.id)
}

// Report renders a human-readable monitoring summary for this node.
func (m *Monitor) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d on %s\n", m.e.id, m.e.rt.sub.Kind())
	mods := []Module{ModMem, ModCons, ModSync, ModTask, ModCluster}
	for _, mod := range mods {
		fmt.Fprintf(&b, "  %-16s %8d calls\n", mod, m.calls(mod))
	}
	st := m.Substrate()
	rows := []struct {
		k string
		v uint64
	}{
		{"reads", st.Reads}, {"writes", st.Writes},
		{"page faults", st.PageFaults},
		{"remote reads", st.RemoteReads}, {"remote writes", st.RemoteWrites},
		{"twins", st.TwinsCreated}, {"diffs", st.DiffsCreated},
		{"diff bytes", st.DiffBytes}, {"invalidations", st.Invalidations},
		{"lock acquires", st.LockAcquires}, {"barriers", st.BarrierCrossings},
		{"evictions", st.Evictions}, {"cache misses", st.CacheMisses},
		{"protocol msgs", st.ProtocolMsgs},
		{"diff batches", st.DiffBatches}, {"batched diffs", st.BatchedDiffs},
		{"prefetch runs", st.PrefetchRuns}, {"prefetch pages", st.PrefetchPages},
		{"prefetch hits", st.PrefetchHits}, {"prefetch waste", st.PrefetchWaste},
	}
	for _, r := range rows {
		if r.v != 0 {
			fmt.Fprintf(&b, "  %-16s %8d\n", r.k, r.v)
		}
	}
	bd := m.timeBreakdown()
	if total := bd.Total(); total > 0 {
		fmt.Fprintf(&b, "  time breakdown (total %d ns):\n", uint64(total))
		for c := vclock.Category(0); int(c) < vclock.NumCategories; c++ {
			v := bd.Get(c)
			if v == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-10s %14d ns %5.1f%%\n",
				c, uint64(v), 100*float64(v)/float64(total))
		}
	}
	for _, sec := range m.e.reportSections {
		if sec.title != "" {
			fmt.Fprintf(&b, "  %s:\n", sec.title)
		}
		b.WriteString(sec.render())
	}
	return b.String()
}

// ClusterReport aggregates Report output for every node, in node order.
func ClusterReport(rt *Runtime) string {
	var b strings.Builder
	ids := make([]int, rt.Nodes())
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	for _, id := range ids {
		b.WriteString(rt.Env(id).Mon.Report())
	}
	return b.String()
}

// sample is one node's monitoring snapshot at a barrier crossing.
type sample struct {
	Node  int
	Epoch uint64
	At    vclock.Time
	Stats platform.Stats
	Calls [moduleCount]uint64
}

// Sampler is an externally attached monitoring collector (§4.3: "an
// independent monitoring system may attach externally"). While attached,
// every barrier crossing appends a per-node snapshot, yielding a
// phase-by-phase time series without touching the application.
type Sampler struct {
	mu      sync.Mutex
	samples []sample
}

// series returns one node's snapshots in epoch order.
func (s *Sampler) series(node int) []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []sample
	for _, sm := range s.samples {
		if sm.Node == node {
			out = append(out, sm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// Timeline renders one node's fault/diff/lock activity per barrier epoch
// — the view a dynamic optimizer (or a human) tunes against.
func (s *Sampler) Timeline(node int) string {
	series := s.series(node)
	var b strings.Builder
	fmt.Fprintf(&b, "node %d activity by barrier epoch (cumulative counters):\n", node)
	fmt.Fprintf(&b, "%6s %14s %8s %8s %8s %8s\n", "epoch", "vtime", "faults", "diffs", "inval", "locks")
	for _, sm := range series {
		fmt.Fprintf(&b, "%6d %14v %8d %8d %8d %8d\n",
			sm.Epoch, sm.At, sm.Stats.PageFaults, sm.Stats.DiffsCreated,
			sm.Stats.Invalidations, sm.Stats.LockAcquires)
	}
	return b.String()
}

func (s *Sampler) record(sm sample) {
	s.mu.Lock()
	s.samples = append(s.samples, sm)
	s.mu.Unlock()
}

// AttachSampler starts external monitoring collection and returns the
// collector. Only one sampler is active at a time.
func (rt *Runtime) AttachSampler() *Sampler {
	s := &Sampler{}
	rt.sampler.Store(s)
	return s
}

// DetachSampler stops collection (nil if none was attached).
func (rt *Runtime) DetachSampler() *Sampler {
	return rt.sampler.Swap(nil)
}

// sampleBarrier records a snapshot for one node if a sampler is attached.
func (e *Env) sampleBarrier() {
	s := e.rt.sampler.Load()
	if s == nil {
		return
	}
	e.epochs++
	var calls [moduleCount]uint64
	for i := Module(0); i < moduleCount; i++ {
		calls[i] = e.calls[i].Load()
	}
	s.record(sample{
		Node:  e.id,
		Epoch: e.epochs,
		At:    e.Now(),
		Stats: e.rt.sub.NodeStats(e.id),
		Calls: calls,
	})
}
