package simnet

// Fault injection for the simulated interconnect.
//
// A FaultPlan describes everything that can go wrong on the wire: random
// drops and duplicates, reordering, per-message jitter, partition windows
// between node pairs, and per-node fail-stop / slowdown schedules. All of
// it is deterministic: every random decision is a pure function of
// (Seed, directed link, per-link sequence number, purpose salt), so a
// given plan over the same traffic replays bit-identically no matter how
// the Go scheduler interleaves node goroutines. The only ordering that
// matters is each sender's own program order, which IS deterministic —
// there is no shared RNG stream for concurrent senders to race on.
//
// The installed plan is denormalized into an immutable faultState and
// published through one atomic pointer, so per-message fault decisions
// never take a lock: the per-link draw counters are atomics that only the
// link's own sender increments (single-writer, so atomicity is about
// visibility, not arbitration), and everything else in the state is
// read-only after construction.
//
// Time in a fault plan is virtual time (see internal/vclock): a crash at
// CrashAt = 5 ms fires when the simulation reaches that point on the
// affected links, not after 5 ms of wall clock.

import (
	"fmt"
	"sync/atomic"

	"hamster/internal/vclock"
)

// Partition severs the link between two nodes for a window of virtual
// time. Messages sent in either direction while the window is open are
// lost; traffic before From or at/after Until flows normally.
type Partition struct {
	A, B NodeID
	// From..Until is the half-open window [From, Until) during which the
	// link is severed. Until == 0 means the partition never heals.
	From, Until vclock.Time
}

// openAt reports whether the window is open at time t.
func (w Partition) openAt(t vclock.Time) bool {
	return t >= w.From && (w.Until == 0 || t < w.Until)
}

// NodeFault is one node's failure schedule.
type NodeFault struct {
	Node NodeID
	// CrashAt, when non-zero, fail-stops the node at that virtual time:
	// every message sent from or to it at or after CrashAt is lost. The
	// node's goroutine keeps executing (a simulation cannot kill it), but
	// all its communication times out — which is exactly how a real
	// cluster observes a dead peer.
	CrashAt vclock.Time
	// SlowFactor, when > 1, multiplies the node's per-message software
	// costs (send/receive protocol stacks and handler service), modeling
	// a node degraded by thermal throttling or a failing NIC driver.
	SlowFactor float64
}

// Draw salts keep the per-purpose decision streams independent even
// though they share one per-link sequence counter. Must stay < 8 (they
// are packed into the low bits of the sequence number).
const (
	saltDrop uint64 = iota
	saltDup
	saltReorder
	saltJitter
	saltBackoff
	saltAckDrop
)

// faultState is one installed fault plan, denormalized for lock-free
// per-message decisions. Everything except linkSeq is immutable after
// construction; linkSeq entries are single-writer (each directed link's
// counter is only advanced by that link's sender goroutine).
type faultState struct {
	plan    FaultPlan
	seed    uint64
	nodes   int
	crashAt []vclock.Time // per node; 0 = never
	slow    []float64     // per node; 1 = full speed
	linkSeq []atomic.Uint64

	// Precomputed dispatch bits, so the zero plan costs one pointer load
	// and a couple of branch-predicted tests per message.
	canLose    bool // drops, partitions, or node schedules can eat a message
	callFaults bool // plan can affect active-message calls
	slowAny    bool // some node has SlowFactor > 1
}

// newFaultState denormalizes a plan for a cluster of the given size. The
// per-link draw counters start at zero — installing a plan (re)starts its
// decision streams.
func newFaultState(p FaultPlan, nodes int) *faultState {
	fs := &faultState{
		plan:    p,
		seed:    uint64(p.Seed),
		nodes:   nodes,
		crashAt: make([]vclock.Time, nodes),
		slow:    make([]float64, nodes),
		linkSeq: make([]atomic.Uint64, nodes*nodes),
	}
	for i := range fs.slow {
		fs.slow[i] = 1
	}
	for _, f := range p.NodeFaults {
		fs.crashAt[f.Node] = f.CrashAt
		if f.SlowFactor > 1 {
			fs.slow[f.Node] = f.SlowFactor
			fs.slowAny = true
		}
	}
	fs.canLose = p.DropProb > 0 || len(p.Partitions) > 0 || len(p.NodeFaults) > 0
	fs.callFaults = p.DropProb > 0 || p.DuplicateProb > 0 ||
		len(p.Partitions) > 0 || len(p.NodeFaults) > 0
	return fs
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// high-quality bit mixer used to turn (seed, link, seq, salt) into an
// independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll consumes the next deterministic draw on the directed link from→to
// and returns a uniform float64 in [0, 1). Concurrent traffic on other
// links cannot perturb the stream; within one link the draws follow the
// sender's program order.
func (fs *faultState) roll(from, to NodeID, salt uint64) float64 {
	idx := uint64(from)*uint64(fs.nodes) + uint64(to)
	seq := fs.linkSeq[idx].Add(1) - 1
	h := splitmix64(fs.seed ^ splitmix64(idx+1) ^ splitmix64(seq<<3|salt))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// crashed reports whether node id has fail-stopped by time at.
func (fs *faultState) crashed(id NodeID, at vclock.Time) bool {
	t := fs.crashAt[id]
	return t > 0 && at >= t
}

// scaledSW scales a per-message software cost by a node's slow factor.
func (fs *faultState) scaledSW(id NodeID, d vclock.Duration) vclock.Duration {
	if !fs.slowAny {
		return d
	}
	if f := fs.slow[id]; f > 1 {
		return vclock.Duration(float64(d) * f)
	}
	return d
}

// linkLost decides the fate of one transmission from→to entering the
// wire at virtual time at: lost to the random-drop draw, a partition
// window, or a crashed endpoint. When DropProb > 0 exactly one drop draw
// is consumed per call — even when the message is already dead to a
// partition or crash — so replays stay aligned.
func (fs *faultState) linkLost(from, to NodeID, at vclock.Time) bool {
	lost := fs.crashed(from, at) || fs.crashed(to, at) ||
		fs.plan.partitionedAt(from, to, at)
	if fs.plan.DropProb > 0 && fs.roll(from, to, saltDrop) < fs.plan.DropProb {
		lost = true
	}
	return lost
}

// ackLost is linkLost for the ack/response travelling to→from, with the
// drop draw taken from the CALLER's from→to stream (its own salt): the
// reverse link's counter belongs to node to's own outgoing traffic, and
// two goroutines sharing one counter would make the decision stream
// depend on scheduler interleaving.
func (fs *faultState) ackLost(from, to NodeID, at vclock.Time) bool {
	lost := fs.crashed(from, at) || fs.crashed(to, at) ||
		fs.plan.partitionedAt(to, from, at)
	if fs.plan.DropProb > 0 && fs.roll(from, to, saltAckDrop) < fs.plan.DropProb {
		lost = true
	}
	return lost
}

// linkDup reports whether a delivered transmission from→to is duplicated
// by the network. Consumes one draw when DuplicateProb > 0.
func (fs *faultState) linkDup(from, to NodeID) bool {
	p := fs.plan.DuplicateProb
	return p > 0 && fs.roll(from, to, saltDup) < p
}

// ScaledSW scales a per-message software cost by a node's slow factor.
// The wire itself (latency, serialization) is never scaled — only the
// CPU-side protocol stack of the degraded node.
func (n *Network) ScaledSW(id NodeID, d vclock.Duration) vclock.Duration {
	return n.fs.Load().scaledSW(id, d)
}

// LinkLost decides the fate of one transmission from→to entering the
// wire at virtual time at. When DropProb > 0 exactly one drop draw is
// consumed per call, so callers must invoke it once per transmission
// attempt to keep replays aligned.
func (n *Network) LinkLost(from, to NodeID, at vclock.Time) bool {
	return n.fs.Load().linkLost(from, to, at)
}

// AckLost decides the fate of the ack/response travelling to→from at
// virtual time at (see faultState.ackLost for the draw-stream rationale).
func (n *Network) AckLost(from, to NodeID, at vclock.Time) bool {
	return n.fs.Load().ackLost(from, to, at)
}

// LinkDup reports whether a delivered transmission from→to is duplicated
// by the network. Consumes one draw when DuplicateProb > 0.
func (n *Network) LinkDup(from, to NodeID) bool {
	return n.fs.Load().linkDup(from, to)
}

// FaultJitter returns a deterministic uniform duration in [0, max) drawn
// from the link's seeded stream — the jitter source for retry backoff.
func (n *Network) FaultJitter(from, to NodeID, max vclock.Duration) vclock.Duration {
	if max == 0 {
		return 0
	}
	return vclock.Duration(n.fs.Load().roll(from, to, saltBackoff) * float64(max))
}

// partitionedAt reports whether the plan severs the a↔b link at time t.
func (p *FaultPlan) partitionedAt(a, b NodeID, t vclock.Time) bool {
	for _, w := range p.Partitions {
		if ((w.A == a && w.B == b) || (w.A == b && w.B == a)) && w.openAt(t) {
			return true
		}
	}
	return false
}

// CallFaultsActive reports whether the installed plan can affect
// active-message calls (drops, duplicates, partitions, or node
// schedules). The active-message layer uses it to pick between the
// fault-free fast path and the request/ack protocol; jitter- or
// reorder-only plans perturb queued messages but not calls. One atomic
// load — this sits on the fast path of every Call.
func (n *Network) CallFaultsActive() bool {
	return n.fs.Load().callFaults
}

// Closed reports whether Close has been called. The active-message layer
// polls it between retry attempts so that tearing the network down wakes
// callers stuck retrying against a dead peer.
func (n *Network) Closed() bool { return n.closed.Load() }

// Drops reports how many queued messages the fault plan has destroyed
// (random drops, partitions, and crashed endpoints; active-message
// attempts are accounted by the layer's own stats and perfmon events).
func (n *Network) Drops() uint64 { return n.drops.Load() }

// FaultProfiles lists the named fault campaigns understood by
// FaultProfile, for -faults flag help.
func FaultProfiles() []string {
	return []string{
		"off", "lossy-ethernet", "very-lossy", "flaky-switch",
		"partition", "crash-node", "slow-node",
	}
}

// FaultProfile builds a named, seeded fault campaign. Profiles are
// cluster-size independent (they reference nodes 0 and 1, present in any
// cluster of at least two nodes):
//
//   - off: no faults — pins the zero-fault identity.
//   - lossy-ethernet: 1% message loss plus 2 µs switch jitter, the
//     classic mildly congested switched-Ethernet segment.
//   - very-lossy: 5% loss plus 5 µs jitter — a failing link.
//   - flaky-switch: 2% duplicates, 5% reordering, 2 µs jitter.
//   - partition: the 0↔1 link is severed between 2 ms and 6 ms of
//     virtual time, then heals.
//   - crash-node: node 1 fail-stops at 2 ms of virtual time.
//   - slow-node: node 1's protocol stacks run 8× slower.
func FaultProfile(name string, seed int64) (FaultPlan, error) {
	p := FaultPlan{Seed: seed}
	switch name {
	case "off":
	case "lossy-ethernet":
		p.DropProb = 0.01
		p.JitterNs = 2000
	case "very-lossy":
		p.DropProb = 0.05
		p.JitterNs = 5000
	case "flaky-switch":
		p.DuplicateProb = 0.02
		p.ReorderProb = 0.05
		p.JitterNs = 2000
	case "partition":
		p.Partitions = []Partition{{A: 0, B: 1, From: 2_000_000, Until: 6_000_000}}
	case "crash-node":
		p.NodeFaults = []NodeFault{{Node: 1, CrashAt: 2_000_000}}
	case "slow-node":
		p.NodeFaults = []NodeFault{{Node: 1, SlowFactor: 8}}
	default:
		return p, fmt.Errorf("simnet: unknown fault profile %q (have %v)", name, FaultProfiles())
	}
	return p, nil
}
