package core

import (
	"reflect"
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

// Every substrate counter has a Report row: with field i of Stats set to
// i+1, the rows hold each value exactly once.
func TestReportRendersEveryStat(t *testing.T) {
	var st platform.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is %s: teach statRows and this test about it", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetUint(uint64(i + 1))
	}
	rows := map[uint64]string{}
	for _, r := range statRows(st) {
		if prev, ok := rows[r.v]; ok {
			t.Errorf("rows %q and %q show the same field", prev, r.k)
		}
		rows[r.v] = r.k
	}
	for i := 0; i < v.NumField(); i++ {
		if _, ok := rows[uint64(i+1)]; !ok {
			t.Errorf("Stats.%s has no Report row", v.Type().Field(i).Name)
		}
	}
}
