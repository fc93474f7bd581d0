package simnet

import (
	"testing"

	"hamster/internal/machine"
	"hamster/internal/vclock"
)

func testLink() machine.Link {
	return machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
}

func testNetTopo(nodes int, topo Topology) (*Network, []*vclock.Clock) {
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	return NewTopo(testLink(), clocks, topo), clocks
}

func TestTopologyHops(t *testing.T) {
	rack, _ := TopologyPreset(TopoRack)
	fat, _ := TopologyPreset(TopoFatTree)
	flat, _ := TopologyPreset(TopoFlat)
	cases := []struct {
		topo Topology
		a, b int
		want int
	}{
		{flat, 0, 255, 1}, // flat: everyone one hop apart
		{rack, 0, 7, 1},   // same rack of 8
		{rack, 0, 8, 3},   // adjacent racks: ToR up, spine, ToR down
		{rack, 3, 250, 3}, // rack has no pod tier: never more than 3
		{fat, 0, 7, 1},    // same rack
		{fat, 0, 8, 3},    // same pod (racks 0 and 1, pod 0)
		{fat, 0, 31, 3},   // rack 3 is still pod 0
		{fat, 0, 32, 5},   // rack 4 = pod 1: ToR, agg, spine, agg, ToR
		{fat, 200, 40, 5}, // cross-pod both directions
		{fat, 40, 47, 1},  // rack 5, same ToR
	}
	for _, c := range cases {
		if got := c.topo.hops(c.a, c.b); got != c.want {
			t.Errorf("%s.Hops(%d,%d) = %d, want %d", c.topo, c.a, c.b, got, c.want)
		}
	}
}

func TestTopologyMsgCostArithmetic(t *testing.T) {
	link := testLink()
	rack, _ := TopologyPreset(TopoRack)
	fat, _ := TopologyPreset(TopoFatTree)

	// Same rack: exactly the legacy link cost.
	if got, want := rack.MsgCost(link, 0, 7, 64), link.MsgCost(64); got != want {
		t.Errorf("same-rack MsgCost = %v, want legacy %v", got, want)
	}
	// Cross-rack on rack preset: +2 hops of 5µs each, payload ×4 oversub.
	// 100 + 1000 + 2*5000 + 64*10*4 + 200 = 13860.
	if got := rack.MsgCost(link, 0, 8, 64); got != 13860 {
		t.Errorf("cross-rack MsgCost = %v, want 13860", got)
	}
	// Cross-pod on fattree: +4 hops, full bisection (oversub 1).
	// 100 + 1000 + 4*5000 + 64*10 + 200 = 21940.
	if got := fat.MsgCost(link, 0, 32, 64); got != 21940 {
		t.Errorf("cross-pod MsgCost = %v, want 21940", got)
	}
	// Zero-size message has no bandwidth term at all.
	if got := rack.MsgCost(link, 0, 8, 0); got != 11300 {
		t.Errorf("cross-rack empty MsgCost = %v, want 11300", got)
	}
}

func TestTopologyOversubScalesPayloadOnly(t *testing.T) {
	rack, _ := TopologyPreset(TopoRack)
	net, _ := testNetTopo(16, rack)

	// WireNs: latency terms are oversub-independent; the payload term
	// scales by bwMul. Same rack = legacy exactly.
	if got, want := net.WireNs(0, 7, 100), vclock.Duration(1000+100*10); got != want {
		t.Errorf("same-rack WireNs = %v, want %v", got, want)
	}
	// Cross rack: 1000 + 2*5000 + 100*10*4 = 15000.
	if got := net.WireNs(0, 8, 100); got != 15000 {
		t.Errorf("cross-rack WireNs = %v, want 15000", got)
	}
	// PayloadNs carries only the serialization term.
	if got := net.PayloadNs(0, 7, 100); got != 1000 {
		t.Errorf("same-rack PayloadNs = %v, want 1000", got)
	}
	if got := net.PayloadNs(0, 8, 100); got != 4000 {
		t.Errorf("cross-rack PayloadNs = %v, want 4000", got)
	}
}

// TestTopologyFlatNetworkIdentity pins the flat-topology network to the
// legacy constructor at the wire level: same arrivals, same clock
// charges, message for message.
func TestTopologyFlatNetworkIdentity(t *testing.T) {
	legacyClocks := make([]*vclock.Clock, 4)
	flatClocks := make([]*vclock.Clock, 4)
	for i := range legacyClocks {
		legacyClocks[i] = &vclock.Clock{}
		flatClocks[i] = &vclock.Clock{}
	}
	legacy := New(testLink(), legacyClocks)
	flat, _ := TopologyPreset(TopoFlat)
	topo := NewTopo(testLink(), flatClocks, flat)

	payloads := [][]byte{nil, []byte("x"), make([]byte, 1024), make([]byte, 4096)}
	for i, p := range payloads {
		legacy.Send(0, 1, UserKindBase, uint32(i), p)
		topo.Send(0, 1, UserKindBase, uint32(i), p)
		lm, tm := legacy.Recv(1, AnyKind, nil), topo.Recv(1, AnyKind, nil)
		if lm.ArriveAt != tm.ArriveAt {
			t.Fatalf("payload %d: arrival %d (legacy) != %d (flat topo)", len(p), lm.ArriveAt, tm.ArriveAt)
		}
	}
	for i := range legacyClocks {
		if legacyClocks[i].Now() != flatClocks[i].Now() {
			t.Fatalf("node %d clock diverged: %d (legacy) != %d (flat topo)",
				i, legacyClocks[i].Now(), flatClocks[i].Now())
		}
	}
	// And the cost helpers reduce to the legacy arithmetic.
	link := testLink()
	if got, want := topo.WireNs(0, 3, 777), link.LatencyNs+vclock.Duration(777*10); got != want {
		t.Errorf("flat WireNs = %v, want %v", got, want)
	}
	if got, want := flat.MsgCost(link, 0, 3, 777), link.MsgCost(777); got != want {
		t.Errorf("flat MsgCost = %v, want %v", got, want)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := TopologyPreset("torus"); err == nil {
		t.Error("TopologyPreset(torus) must fail")
	}
	if err := (Topology{Preset: "torus"}).validate(); err == nil {
		t.Error("Validate must reject unknown presets")
	}
	// Normalize fills defaults so cost arithmetic never divides by zero.
	n := Topology{Preset: TopoRack}.Normalize()
	if n.RackSize != 8 || n.Oversub != 4 || n.HopLatencyNs != 5_000 {
		t.Errorf("Normalize(rack) = %+v, want defaults", n)
	}
	if !(Topology{}).Normalize().IsFlat() {
		t.Error("zero topology must normalize to flat")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewTopo must panic on an invalid preset")
		}
	}()
	NewTopo(testLink(), []*vclock.Clock{{}}, Topology{Preset: "torus"})
}
