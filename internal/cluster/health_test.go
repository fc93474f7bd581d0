package cluster

import (
	"errors"
	"strings"
	"testing"

	"hamster/internal/amsg"
	"hamster/internal/machine"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

func testHealthLayer(nodes int) (*amsg.Layer, []*vclock.Clock) {
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
	net := simnet.New(link, clocks)
	return amsg.New(net, link), clocks
}

// A healthy cluster probes clean: every peer stays Up and the
// diagnostic says so.
func TestMonitorAllUp(t *testing.T) {
	l, _ := testHealthLayer(3)
	m := NewMonitor(l, 0, nil)
	if m.threshold != DefaultThreshold {
		t.Fatalf("threshold = %d, want default %d", m.threshold, DefaultThreshold)
	}
	if down := m.Sweep(0); down != nil {
		t.Fatalf("sweep of a healthy cluster found %v down", down)
	}
	for id := 0; id < 3; id++ {
		if st := m.status[id]; st != nodeUp {
			t.Fatalf("node %d status = %v, want up", id, st)
		}
	}
	if d := m.Diagnostic(); d != "cluster health: all nodes up" {
		t.Fatalf("diagnostic = %q", d)
	}
}

// A fail-stopped node misses consecutive heartbeats until the threshold
// marks it Down: one sweep detects it, records EvNodeDown, fences it in
// the amsg layer, and the diagnostic names it.
func TestMonitorDetectsCrashedNode(t *testing.T) {
	l, _ := testHealthLayer(3)
	rec := perfmon.New(3, 0)
	l.SetRecorder(rec)
	rec.Enable()
	// Node 2 is dead from the start.
	l.Network().SetFaults(simnet.FaultPlan{
		NodeFaults: []simnet.NodeFault{{Node: 2, CrashAt: 1}},
		Seed:       5,
	})
	m := NewMonitor(l, 0, rec)

	down := m.Sweep(0)
	if len(down) != 1 || down[0] != 2 {
		t.Fatalf("sweep found %v down, want [2]", down)
	}
	if st := m.status[2]; st != nodeDown {
		t.Fatalf("node 2 status = %v, want down", st)
	}
	if st := m.status[1]; st != nodeUp {
		t.Fatalf("node 1 status = %v, want up", st)
	}
	if rec.KindCount(0)[perfmon.EvNodeDown] != 1 {
		t.Fatal("EvNodeDown was not recorded")
	}
	// Fenced in the amsg layer: subsequent calls fail immediately, zero
	// attempts.
	_, err := l.CallErr(0, 2, kindHeartbeat, nil)
	var ue *amsg.UnreachableError
	if !errors.As(err, &ue) || ue.Attempts != 0 {
		t.Fatalf("post-down call err = %v, want fenced UnreachableError", err)
	}
	d := m.Diagnostic()
	if !strings.Contains(d, "node 2 DOWN after 3 missed heartbeats") || !strings.Contains(d, "nodes 0,1 up") {
		t.Fatalf("diagnostic = %q", d)
	}
	// Down is sticky: probing again stays Down without new traffic.
	if st := m.probe(0, 2); st != nodeDown {
		t.Fatalf("re-probe of a down node = %v, want down", st)
	}
}
