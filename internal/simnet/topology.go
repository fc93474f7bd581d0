// Topology models where two nodes sit in a switched fabric. The flat
// preset is the legacy all-to-all network: one switch, every pair one
// hop apart, costs computed with exactly the arithmetic the pre-topology
// fabric used (pinned bit-identical by TestTopologyFlatIdentity). The
// rack and fattree presets place nodes in racks behind top-of-rack
// switches: traffic that leaves a rack crosses extra switch tiers, each
// adding per-hop latency, and competes for oversubscribed uplinks, which
// multiplies the per-byte serialization cost.
//
// The model is deliberately coarse — hop counts and a bandwidth divisor,
// not queueing theory — but it is deterministic and it moves the one
// quantity the protocols above care about: the cost ratio between
// talking to a neighbor and talking across the cluster.

package simnet

import (
	"fmt"

	"hamster/internal/machine"
	"hamster/internal/vclock"
)

// Topology preset names understood by TopologyPreset.
const (
	TopoFlat    = "flat"
	TopoRack    = "rack"
	TopoFatTree = "fattree"
)

// Topology describes the switch fabric between nodes. The zero value is
// the flat legacy fabric. Non-flat topologies group nodes into racks of
// RackSize consecutive ids behind a top-of-rack switch; fattree further
// groups RacksPerPod racks into pods behind aggregation switches, with a
// spine tier joining pods.
type Topology struct {
	// Preset names the shape: "flat" (or ""), "rack", "fattree".
	Preset string
	// RackSize is how many consecutive node ids share a top-of-rack
	// switch (default 8). Ignored by flat.
	RackSize int
	// RacksPerPod groups racks under one aggregation switch (fattree
	// only, default 4).
	RacksPerPod int
	// HopLatencyNs is the extra wire+switch latency per hop beyond the
	// first (default 5µs). A same-rack message pays zero extra; each
	// additional switch tier crossed adds 2 hops (up and back down).
	HopLatencyNs vclock.Duration
	// Oversub is the uplink oversubscription ratio: cross-rack traffic
	// pays Oversub× the per-byte serialization cost, modeling RackSize
	// servers sharing RackSize/Oversub uplink capacity. Default 4 for
	// rack, 1 for fattree (full bisection bandwidth — that is the point
	// of a fat tree).
	Oversub int
}

// TopologyNames lists the presets understood by TopologyPreset, for
// -topology flag help.
func TopologyNames() []string { return []string{TopoFlat, TopoRack, TopoFatTree} }

// TopologyPreset builds a named topology with its default parameters.
func TopologyPreset(name string) (Topology, error) {
	switch name {
	case "", TopoFlat:
		return Topology{Preset: TopoFlat}, nil
	case TopoRack:
		return Topology{Preset: TopoRack, RackSize: 8, HopLatencyNs: 5_000, Oversub: 4}, nil
	case TopoFatTree:
		return Topology{Preset: TopoFatTree, RackSize: 8, RacksPerPod: 4, HopLatencyNs: 5_000, Oversub: 1}, nil
	default:
		return Topology{}, fmt.Errorf("simnet: unknown topology %q (have %v)", name, TopologyNames())
	}
}

// IsFlat reports whether the topology is the legacy all-to-all fabric.
func (t Topology) IsFlat() bool { return t.Preset == "" || t.Preset == TopoFlat }

// Normalize fills zero fields with the preset's defaults so cost methods
// never divide the cluster by a zero rack. Network stores the normalized
// form at construction; code holding a Topology from elsewhere should
// normalize before doing arithmetic with it.
func (t Topology) Normalize() Topology {
	if t.IsFlat() {
		return Topology{Preset: TopoFlat}
	}
	if t.RackSize <= 0 {
		t.RackSize = 8
	}
	if t.RacksPerPod <= 0 {
		t.RacksPerPod = 4
	}
	if t.HopLatencyNs <= 0 {
		t.HopLatencyNs = 5_000
	}
	if t.Oversub <= 0 {
		if t.Preset == TopoRack {
			t.Oversub = 4
		} else {
			t.Oversub = 1
		}
	}
	return t
}

// validate rejects unknown presets.
func (t Topology) validate() error {
	switch t.Preset {
	case "", TopoFlat, TopoRack, TopoFatTree:
		return nil
	default:
		return fmt.Errorf("simnet: unknown topology %q (have %v)", t.Preset, TopologyNames())
	}
}

// RackOf returns the rack index of a node (0 for flat).
func (t Topology) RackOf(node int) int {
	if t.IsFlat() {
		return 0
	}
	return node / t.RackSize
}

// PodOf returns the pod index of a node (0 unless fattree).
func (t Topology) PodOf(node int) int {
	if t.Preset != TopoFatTree {
		return 0
	}
	return t.RackOf(node) / t.RacksPerPod
}

// hops counts switch traversals between two nodes: 1 within a rack (or
// anywhere on flat), 3 across racks (ToR up, spine, ToR down), 5 across
// pods on fattree (ToR, aggregation, spine, aggregation, ToR).
func (t Topology) hops(a, b int) int {
	if t.IsFlat() || t.RackOf(a) == t.RackOf(b) {
		return 1
	}
	if t.Preset == TopoFatTree && t.PodOf(a) != t.PodOf(b) {
		return 5
	}
	return 3
}

// extraLatencyNs is the added latency beyond the base link latency:
// HopLatencyNs per hop after the first.
func (t Topology) extraLatencyNs(a, b int) vclock.Duration {
	return vclock.Duration(t.hops(a, b)-1) * t.HopLatencyNs
}

// MaxExtraLatencyNs bounds extraLatencyNs over any node pair, for sizing
// retry timeouts.
func (t Topology) MaxExtraLatencyNs() vclock.Duration {
	if t.IsFlat() {
		return 0
	}
	maxHops := 3
	if t.Preset == TopoFatTree {
		maxHops = 5
	}
	return vclock.Duration(maxHops-1) * t.HopLatencyNs
}

// bwMul is the per-byte serialization multiplier for a pair: 1 within a
// rack, Oversub across uplinks.
func (t Topology) bwMul(a, b int) vclock.Duration {
	if t.IsFlat() || t.RackOf(a) == t.RackOf(b) {
		return 1
	}
	return vclock.Duration(t.Oversub)
}

// MsgCost is the full one-way message cost between two specific nodes
// under this topology: link.MsgCost(size) exactly when the pair shares a
// rack (or the topology is flat), plus extra hop latency and the
// oversubscription byte multiplier otherwise.
func (t Topology) MsgCost(link machine.Link, a, b, size int) vclock.Duration {
	if t.IsFlat() {
		return link.MsgCost(size)
	}
	return link.SendSWNs + link.LatencyNs + t.extraLatencyNs(a, b) +
		vclock.Duration(size)*link.NsPerByte*t.bwMul(a, b) + link.RecvSWNs
}

// String renders the topology for logs and JSON rows.
func (t Topology) String() string {
	if t.IsFlat() {
		return TopoFlat
	}
	return t.Preset
}

// Topology returns the network's normalized topology.
func (n *Network) Topology() Topology { return n.topo }

// WireNs is the one-way wire time (latency + payload serialization) from
// one node to another, excluding software send/receive costs. On the flat
// fabric this is exactly the legacy arrival arithmetic.
func (n *Network) WireNs(from, to NodeID, bytes int) vclock.Duration {
	base := n.link.LatencyNs + vclock.Duration(uint64(bytes)*uint64(n.link.NsPerByte))
	if n.topoFlat {
		return base
	}
	return base + n.topo.extraLatencyNs(int(from), int(to)) +
		vclock.Duration(bytes)*n.link.NsPerByte*(n.topo.bwMul(int(from), int(to))-1)
}

// PayloadNs is the serialization-only cost (no latency term) from one
// node to another, used by posted sends that overlap latency with
// compute.
func (n *Network) PayloadNs(from, to NodeID, bytes int) vclock.Duration {
	base := vclock.Duration(uint64(bytes) * uint64(n.link.NsPerByte))
	if n.topoFlat {
		return base
	}
	return base * n.topo.bwMul(int(from), int(to))
}
