// Package hsync is the Synchronization Management service module of
// every substrate (§4.2): one Manager owns the lock table, the barrier,
// the routing of each request, the write-notice exchange that rides the
// boundaries, the per-node counters and event records, and abort. The
// paper makes synchronization and consistency orthogonal modules; here
// that is literal — the Manager knows nothing about pages and drives a
// consistency engine through the two consengine.Composable hooks
// (FlushInterval at a release point, InvalidatePages at an acquire
// point), the arrangement internal/multidsm introduced for two engines
// and every substrate now uses for its one. What differs between
// substrates is data handed to the constructor: a Wire (what a message
// costs, who it interrupts, whether it carries notices, whether the
// fabric goes hierarchical) and the engine.
//
// Up to Threshold nodes a lock lives at a home node and the barrier at
// manager node 0. Above it, a Wire with Hier switches to the two
// structures this package also provides: a topology-aligned reduction
// Tree for the barrier and, per lock, a DLock — a distributed MCS-style
// queue whose token migrates to the requester along probable-holder hint
// chains, the same idea as IVY's probable-owner page forwarding (see
// internal/ivy) applied to lock tokens. Tree and DLock are structure and
// cost arithmetic only; blocking and the virtual-time rendezvous stay in
// vclock.VLock/VBarrier, which the Manager drives.
//
// Everything here is deterministic given the sequence of calls; like the
// IVY engine's forwarding chains, the *length* of a hint chain depends
// on the order concurrent requesters reach the lock, so virtual times
// under lock contention are schedule-dependent while checksums and
// mutual exclusion are not.
//
// Concurrency contract: see Manager for which goroutine may call what.
// Tree is immutable after construction. DLock methods are safe to call
// from all node goroutines; the internal mutex only guards the hint
// array and never blocks on virtual time.
package hsync

import (
	"fmt"
	"sync"

	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Threshold is the cluster size above which a Manager whose Wire allows
// it switches from single-home locks and a centralized barrier to the
// hierarchical primitives in this package. At 8 nodes and below the
// centralized protocol is both cheaper and pinned by the committed
// benchmarks.
const Threshold = 8

// CostFn prices one protocol message of the given payload size between
// two specific nodes (typically Topology.MsgCost over the substrate's
// link, or a flat SAN sync-message cost).
type CostFn func(from, to, bytes int) vclock.Duration

// StealFn charges a node's clock with stolen handler cycles for
// forwarding work done on its behalf by another goroutine.
type StealFn func(node int, d vclock.Duration)

// Tree is a reduction/broadcast tree over node ids, aligned with the
// topology when it has racks: members report to their rack's first node,
// rack leaders to their pod's first node (fattree), pod leaders to node
// 0. On a flat topology it is an arity-8 heap tree. Node 0 is always the
// root.
type Tree struct {
	parent []int // parent[i] is i's parent, -1 at the root
	depth  []int // hop count to the root
}

// treeArity is the fan-in of the flat-topology heap tree; chosen to
// match the default rack size so flat and rack trees have comparable
// depth.
const treeArity = 8

// NewTree builds the tree for a cluster of the given size under topo.
func NewTree(nodes int, topo simnet.Topology) *Tree {
	if nodes <= 0 {
		panic(fmt.Sprintf("hsync: tree over %d nodes", nodes))
	}
	topo = topo.Normalize()
	t := &Tree{parent: make([]int, nodes), depth: make([]int, nodes)}
	for i := 0; i < nodes; i++ {
		t.parent[i] = t.parentOf(i, topo)
	}
	for i := 1; i < nodes; i++ {
		d, v := 0, i
		for v != 0 {
			v = t.parent[v]
			d++
		}
		t.depth[i] = d
	}
	return t
}

func (t *Tree) parentOf(i int, topo simnet.Topology) int {
	if i == 0 {
		return -1
	}
	if topo.IsFlat() {
		return (i - 1) / treeArity
	}
	rackLeader := topo.RackOf(i) * topo.RackSize
	if i != rackLeader {
		return rackLeader
	}
	if topo.Preset == simnet.TopoFatTree {
		podLeader := topo.PodOf(i) * topo.RacksPerPod * topo.RackSize
		if i != podLeader {
			return podLeader
		}
	}
	return 0
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.parent) }

// Parent returns a node's parent (-1 at the root).
func (t *Tree) Parent(n int) int { return t.parent[n] }

// Depth returns a node's distance from the root in tree hops.
func (t *Tree) Depth(n int) int { return t.depth[n] }

// PathCost sums msg over every edge on the node↔root path, pricing one
// bytes-sized message per tree hop. A barrier arrival charges this
// upward (the node's notice must traverse every tier before the root can
// release) and the release wave charges it downward; all link models
// here are symmetric, so the same sum serves both directions. Interrupt
// accounting is the caller's: only the node's direct parent takes a
// per-arrival interrupt — ancestors see one aggregated message per
// child subtree, which is the whole point of the tree (the root absorbs
// O(fan-in) interrupts per barrier instead of O(cluster)).
func (t *Tree) PathCost(node, bytes int, msg CostFn) vclock.Duration {
	var cost vclock.Duration
	for v := node; t.parent[v] >= 0; v = t.parent[v] {
		cost += msg(v, t.parent[v], bytes)
	}
	return cost
}

// DLock is a distributed lock whose token migrates to the requester.
// Every node keeps a probable-holder hint (initialized to the home
// node); a request is forwarded along the hint chain until it reaches
// the node whose hint points at itself — the current tail of the
// distributed queue — and every node on the path (plus the requester and
// the tail) re-points its hint at the requester, collapsing future
// chains. This is the MCS queue realized with IVY's probable-owner
// machinery: no home-node serialization, O(1) amortized forwarding.
//
// Mutual exclusion and virtual-time rendezvous remain the wrapped
// vclock.VLock's job; DLock computes who the predecessor is and what the
// forwarding path costs.
type DLock struct {
	VL *vclock.VLock

	mu     sync.Mutex
	hint   []int
	holder int
}

// NewDLock wraps vl for a cluster of the given size with the token
// initially homed at home.
func NewDLock(vl *vclock.VLock, nodes, home int) *DLock {
	d := &DLock{VL: vl, hint: make([]int, nodes), holder: home}
	for i := range d.hint {
		d.hint[i] = home
	}
	return d
}

// Request routes node's acquire request along the hint chain and makes
// node the new probable holder. It returns the predecessor (the previous
// tail, == node when the requester already held the token), the summed
// forwarding cost the requester must charge itself before blocking on
// the VLock, and the chain length in hops. steal charges each forwarding
// node perHopSteal for the interrupt that relayed the request.
func (d *DLock) Request(node, bytes int, msg CostFn, steal StealFn, perHopSteal vclock.Duration) (prev int, cost vclock.Duration, hops int) {
	d.mu.Lock()
	prev, cost, hops = d.walk(node, bytes, msg, steal, perHopSteal, true)
	d.mu.Unlock()
	return prev, cost, hops
}

// Probe prices the chain without mutating it, for try-acquire paths that
// must not claim the token when the VLock is busy. Commit re-points the
// chain after a successful try.
func (d *DLock) Probe(node, bytes int, msg CostFn) (prev int, cost vclock.Duration) {
	d.mu.Lock()
	prev, cost, _ = d.walk(node, bytes, msg, nil, 0, false)
	d.mu.Unlock()
	return prev, cost
}

// Commit makes node the probable holder after a successful Probe +
// TryAcquire pair.
func (d *DLock) Commit(node int) {
	d.mu.Lock()
	d.walk(node, 0, func(_, _, _ int) vclock.Duration { return 0 }, nil, 0, true)
	d.mu.Unlock()
}

// walk follows the hint chain from node to the current holder, charging
// one message per hop, and (when compress) re-points every visited hint
// at node and installs node as holder. Caller holds d.mu.
func (d *DLock) walk(node, bytes int, msg CostFn, steal StealFn, perHopSteal vclock.Duration, compress bool) (int, vclock.Duration, int) {
	var cost vclock.Duration
	hops := 0
	cur := node
	for cur != d.holder {
		next := d.hint[cur]
		if next == cur {
			// Defensive: a self-hint anywhere but the holder would spin;
			// fall back to the authoritative tail.
			next = d.holder
		}
		cost += msg(cur, next, bytes)
		hops++
		if steal != nil && next != node {
			steal(next, perHopSteal)
		}
		if compress {
			d.hint[cur] = node
		}
		cur = next
		if hops > 2*len(d.hint) {
			panic("hsync: probable-holder chain cycled")
		}
	}
	if compress {
		d.hint[cur] = node
		d.hint[node] = node
		d.holder = node
	}
	return cur, cost, hops
}

// Holder reports the current probable holder (for tests).
func (d *DLock) Holder() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.holder
}

// ChainLen reports how many hops a request from node would take (for
// tests).
func (d *DLock) ChainLen(node int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _, hops := d.walk(node, 0, func(_, _, _ int) vclock.Duration { return 0 }, nil, 0, false)
	return hops
}
