package core

import (
	"strings"
	"testing"

	"hamster/internal/platform"
	"hamster/internal/vclock"
)

// The single Reset story: Monitor.ResetAll clears this node's module call
// counters, the substrate's activity counters, and the node's recorded
// protocol events — and never touches the virtual clock or its
// attribution.
func TestMonitorResetAllStory(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	rt.Perf().Enable()
	rt.Run(func(e *Env) {
		e.Compute(1000)
		e.Sync.Barrier()
	})
	rt.Perf().Disable()

	m := rt.Env(0).Mon
	if totalCalls(m) == 0 {
		t.Fatal("no module calls recorded before reset")
	}
	if m.Substrate().BarrierCrossings == 0 {
		t.Fatal("no substrate activity recorded before reset")
	}
	if rt.Perf().Len(0) == 0 {
		t.Fatal("no protocol events recorded before reset")
	}
	before := rt.Env(0).Now()
	bdBefore := m.timeBreakdown()

	m.ResetAll()

	if got := totalCalls(m); got != 0 {
		t.Fatalf("module calls after ResetAll = %d, want 0", got)
	}
	if st := m.Substrate(); st.BarrierCrossings != 0 || st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("substrate stats after ResetAll: %+v", st)
	}
	if got := rt.Perf().Len(0); got != 0 {
		t.Fatalf("protocol events after ResetAll = %d, want 0", got)
	}
	// Clocks are the simulation's timeline, not monitoring state.
	if got := rt.Env(0).Now(); got != before {
		t.Fatalf("ResetAll moved the clock: %d -> %d", before, got)
	}
	if got := m.timeBreakdown(); got != bdBefore {
		t.Fatalf("ResetAll changed the attribution: %+v -> %+v", bdBefore, got)
	}

	// Node 1 is untouched by node 0's reset.
	if totalCalls(rt.Env(1).Mon) == 0 {
		t.Fatal("ResetAll on node 0 cleared node 1's counters")
	}
	if rt.Perf().Len(1) == 0 {
		t.Fatal("ResetAll on node 0 cleared node 1's events")
	}
}

// totalCalls sums a node's service calls across all modules.
func totalCalls(m *Monitor) uint64 {
	var total uint64
	for i := Module(0); i < moduleCount; i++ {
		total += m.calls(i)
	}
	return total
}

// The monitoring report includes the attribution block, and the breakdown
// it prints satisfies the exact-sum invariant.
func TestMonitorReportBreakdown(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	rt.Run(func(e *Env) {
		e.Compute(1000)
		e.Sync.Barrier()
	})
	m := rt.Env(0).Mon
	bd := m.timeBreakdown()
	if got, want := bd.Total(), vclock.Duration(rt.Env(0).Now()); got != want {
		t.Fatalf("breakdown sums to %d, clock is %d", got, want)
	}
	rep := m.Report()
	if !strings.Contains(rep, "time breakdown") || !strings.Contains(rep, "compute") {
		t.Fatalf("report missing attribution block:\n%s", rep)
	}
}
