// Package simnet simulates the cluster interconnect.
//
// Every simulated node is a goroutine with a virtual clock. The network
// moves byte-payload messages between nodes, charging the sender's and
// receiver's clocks with the costs of the configured link profile (see
// internal/machine). Delivery is reliable and, by default, in arrival-time
// order per receiver; fault injection (see faults.go) can drop, reorder,
// duplicate, jitter, or partition traffic and fail-stop or slow down whole
// nodes to exercise protocol robustness — deterministically, so seeded
// fault campaigns replay bit-identically.
//
// Two communication styles are supported:
//
//   - Queued messages (Send/Recv): the receiver's goroutine explicitly
//     waits for a message. Used for user-level messaging, task forwarding,
//     and startup coordination.
//   - Service calls (Call, in package amsg): the caller's goroutine
//     executes a handler against the target node's state, charging the
//     target with stolen handler cycles. This models interrupt-driven
//     protocol processing (SIGIO in JiaJia) without requiring the target
//     goroutine to poll.
//
// Delivery on the queued fabric can additionally be gated by a
// conservative lookahead engine (EnableGate → vclock.Engine): a receiver
// then consumes a message only once no peer can still produce an earlier
// virtual arrival, making delivery order a pure function of virtual time
// — Chandy–Misra–Bryant-style conservative parallel simulation. See
// internal/vclock's engine for the model and the safety argument.
//
// Wall-time engineering: the per-message path is contention-free when no
// fault plan is active. The installed plan lives behind one atomic
// pointer (an immutable faultState), per-node counters are plain atomics,
// and Message structs recycle through a pool (consumers that know a
// message is dead hand it back with Free). Pending messages are indexed
// per (receiver, kind), so a receive filtering on one kind never rescans
// another kind's backlog. The only mutex a fault-free ungated Send/Recv
// pair touches is the receiver endpoint's own queue lock.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hamster/internal/machine"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// NodeID identifies a node within a cluster, 0-based.
type NodeID int

// Kind classifies a message for dispatch. Kinds below 1024 are reserved
// for internal protocol layers; user messaging uses kinds >= 1024.
// The all-ones value is reserved as the AnyKind receive wildcard.
type Kind uint16

// UserKindBase is the first Kind available to applications.
const UserKindBase Kind = 1024

// AnyKind makes Recv/TryRecv consider every pending kind instead of one
// kind's bucket. Not a valid kind to send with.
const AnyKind = ^Kind(0)

// Message is one unit of communication.
type Message struct {
	From, To NodeID
	Kind     Kind
	Tag      uint32 // protocol- or user-defined discriminator
	Payload  []byte
	// ArriveAt is the virtual time the message reaches the receiver's NIC.
	ArriveAt vclock.Time
	seq      uint64 // per-receiver tiebreaker for deterministic ordering
}

// msgPool recycles Message structs on the send/receive hot path. A struct
// re-enters the pool only through Free, i.e. only when its consumer
// declares it dead; payloads are never pooled here (the sender owns the
// payload bytes — see Send).
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// Free recycles a received message's struct (NOT its payload — payload
// ownership is unaffected and stays with whoever holds the slice). Call
// it only when no reference to the message remains; receiving a message
// does not require freeing it, so callers that let structs reach the
// garbage collector are merely slower, never wrong.
func (m *Message) Free() {
	*m = Message{}
	msgPool.Put(m)
}

// FaultPlan perturbs message delivery for robustness tests. Every field
// with all-zero values leaves the network byte- and virtual-time-identical
// to running with no plan at all; see faults.go for the deterministic
// draw machinery behind the probabilistic fields.
type FaultPlan struct {
	// DropProb is the probability (0..1) that a transmission is lost on
	// the wire. Queued messages silently vanish; active-message calls see
	// a virtual-time ack timeout and retry (see internal/amsg).
	DropProb float64
	// ReorderProb is the probability (0..1) that an enqueued message is
	// swapped with its queue predecessor.
	ReorderProb float64
	// DuplicateProb is the probability that a message is delivered twice.
	DuplicateProb float64
	// JitterNs adds a per-message uniform random latency in [0, JitterNs)
	// virtual nanoseconds to the arrival time, modeling switch queueing
	// variance. Drawn from the seeded source, so a given (plan, traffic)
	// pair always produces the same delays.
	JitterNs vclock.Duration
	// Partitions lists per-link virtual-time windows during which a node
	// pair cannot communicate.
	Partitions []Partition
	// NodeFaults lists per-node fail-stop and slowdown schedules.
	NodeFaults []NodeFault
	// Recover asks the runtime to survive the plan's crash schedules:
	// when a node is declared down, surviving state is rolled back to the
	// last checkpoint and the run resumes (see internal/cluster and
	// internal/checkpoint). The network itself ignores the flag — it only
	// transports it from the plan's author to the recovery orchestrator.
	Recover bool
	// Seed makes the perturbation deterministic.
	Seed int64
}

// Network connects a fixed set of nodes with a single link profile.
type Network struct {
	link  machine.Link
	nodes []*endpoint
	stats Stats

	// topo places nodes in the switch fabric (see topology.go). Stored
	// normalized; topoFlat caches IsFlat so the per-message fast path
	// keeps the legacy arithmetic without a method call.
	topo     Topology
	topoFlat bool

	// gate, when non-nil, is the conservative lookahead engine every
	// queued delivery must clear. Installed by EnableGate before any
	// traffic, then read without synchronization (immutable thereafter).
	gate *vclock.Engine

	// fs is the installed fault plan, denormalized into an immutable
	// faultState and swapped atomically by SetFaults. Never nil — the
	// zero plan is installed at construction — so every per-message
	// decision is one atomic pointer load, no mutex. In-flight messages
	// observe either the old or the new state, never a mix (each Send
	// loads the pointer once).
	fs atomic.Pointer[faultState]

	closed atomic.Bool
	drops  atomic.Uint64

	rec *perfmon.Recorder // protocol event recorder; nil until attached
}

// Stats aggregates network activity. Counters are plain atomics: a
// per-message mutex here would serialize every sender in the cluster
// (the exact software overhead the paper's message economics warns
// about, applied to the host).
type Stats struct {
	messages atomic.Uint64
	bytes    atomic.Uint64
}

// Snapshot returns the current counters.
func (s *Stats) Snapshot() (msgs, bytes uint64) {
	return s.messages.Load(), s.bytes.Load()
}

func (s *Stats) add(bytes int) {
	s.messages.Add(1)
	s.bytes.Add(uint64(bytes))
}

// endpoint is one node's receive side. Pending messages are bucketed by
// kind so a filtered receive scans only its own kind's backlog; delivery
// order is unaffected because selection is by (ArriveAt, seq), which is
// position-independent, and seq is assigned from one per-endpoint
// counter across all buckets (ties are impossible, so even the
// unordered bucket-map iteration of an AnyKind scan has a unique
// minimum).
type endpoint struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buckets map[Kind][]*Message
	pending int
	nextSq  uint64
	clock   *vclock.Clock
	closed  bool

	// Gate-only bookkeeping (set up by EnableGate; skipped entirely on
	// ungated networks so the reference path pays nothing): minArrive
	// mirrors minArrivalLocked as a lock-free atomic — infArrive when the
	// queue is empty — so the engine can probe ANY node's earliest queued
	// arrival without touching its queue lock, including the node whose
	// own receive is being gated. Writers update it under mu; the engine
	// reads it under its own lock, so a probe sees either the value
	// before or after a concurrent enqueue — and an enqueue always kicks
	// the engine afterwards, so staleness only delays, never admits.
	gated     bool
	minArrive atomic.Uint64
}

// infArrive is minArrive's empty-queue sentinel.
const infArrive = ^uint64(0)

// scanLocked finds the earliest (ArriveAt, seq) message matching the
// filter, in one kind's bucket or across all of them for AnyKind.
// Returns the bucket kind and index, or idx -1. Requires mu.
func (ep *endpoint) scanLocked(kind Kind, match func(*Message) bool) (Kind, int) {
	var best *Message
	bk, bi := kind, -1
	if kind != AnyKind {
		for i, m := range ep.buckets[kind] {
			if match != nil && !match(m) {
				continue
			}
			if best == nil || less(m, best) {
				best, bi = m, i
			}
		}
		return bk, bi
	}
	for k, q := range ep.buckets {
		for i, m := range q {
			if match != nil && !match(m) {
				continue
			}
			if best == nil || less(m, best) {
				best, bk, bi = m, k, i
			}
		}
	}
	return bk, bi
}

// takeLocked removes and returns a scanLocked hit. Requires mu.
func (ep *endpoint) takeLocked(k Kind, idx int) *Message {
	q := ep.buckets[k]
	m := q[idx]
	ep.buckets[k] = append(q[:idx], q[idx+1:]...)
	ep.pending--
	if ep.gated && uint64(m.ArriveAt) <= ep.minArrive.Load() {
		// Removed the minimum: rescan. Raising the published value is
		// always sound — it only tightens what peers may borrow.
		if min, ok := ep.minArrivalLocked(); ok {
			ep.minArrive.Store(uint64(min))
		} else {
			ep.minArrive.Store(infArrive)
		}
	}
	return m
}

// minArrivalLocked is the earliest arrival over every pending message,
// regardless of kind or filters. Requires mu.
func (ep *endpoint) minArrivalLocked() (vclock.Time, bool) {
	var min vclock.Time
	found := false
	for _, q := range ep.buckets {
		for _, m := range q {
			if !found || m.ArriveAt < min {
				min, found = m.ArriveAt, true
			}
		}
	}
	return min, found
}

// New creates a network of len(clocks) nodes over the given link profile
// and the flat legacy topology. Each node's costs are charged to the
// corresponding clock.
func New(link machine.Link, clocks []*vclock.Clock) *Network {
	return NewTopo(link, clocks, Topology{})
}

// NewTopo creates a network whose message costs depend on where the two
// endpoints sit in the given topology. A flat (or zero) topology is
// bit-identical to New.
func NewTopo(link machine.Link, clocks []*vclock.Clock, topo Topology) *Network {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	topo = topo.Normalize()
	n := &Network{
		link:     link,
		nodes:    make([]*endpoint, len(clocks)),
		topo:     topo,
		topoFlat: topo.IsFlat(),
	}
	for i, c := range clocks {
		ep := &endpoint{clock: c, buckets: make(map[Kind][]*Message)}
		ep.cond = sync.NewCond(&ep.mu)
		n.nodes[i] = ep
	}
	n.fs.Store(newFaultState(FaultPlan{}, len(clocks)))
	return n
}

// EnableGate builds a conservative lookahead engine over the network's
// clocks and topology and gates all queued delivery on it. The lookahead
// for a pair is the minimum wire latency any future message between them
// can have: base link latency plus the topology's extra hop latency —
// never payload serialization (a future message may be empty), never
// jitter (only added), and never sender software cost (a message already
// in flight has that cost spent before its arrival stamp is visible).
// Must be called before any traffic; returns the engine for MarkDown and
// test introspection.
func (n *Network) EnableGate() *vclock.Engine {
	size := len(n.nodes)
	clocks := make([]*vclock.Clock, size)
	for i, ep := range n.nodes {
		clocks[i] = ep.clock
	}
	la := make([][]vclock.Duration, size)
	for p := 0; p < size; p++ {
		row := make([]vclock.Duration, size)
		for r := 0; r < size; r++ {
			if p == r {
				continue
			}
			row[r] = n.link.LatencyNs
			if !n.topoFlat {
				row[r] += n.topo.ExtraLatencyNs(p, r)
			}
		}
		la[p] = row
	}
	for _, ep := range n.nodes {
		ep.gated = true
		ep.minArrive.Store(infArrive)
	}
	e := vclock.NewEngine(clocks, la)
	e.SetQueueMin(func(node int) (vclock.Time, bool) {
		// Lock-free: see endpoint.minArrive. The engine may probe any
		// node, including one holding its own queue lock in recvGated.
		v := n.nodes[node].minArrive.Load()
		if v == infArrive {
			return 0, false
		}
		return vclock.Time(v), true
	})
	n.gate = e
	return e
}

// MarkNodeDown tells the gate (if any) that a node is fail-stopped and
// no longer bounds delivery horizons. Callers must only report nodes
// whose outbound traffic the fault plan is eating — the health monitor's
// down verdicts on plan-crashed nodes. No-op when ungated.
func (n *Network) MarkNodeDown(id NodeID) {
	n.checkID(id)
	if g := n.gate; g != nil {
		g.MarkDown(int(id))
	}
}

// SetNodeRetired tells the gate (if any) that a node's program has
// returned and it will never send again (v=true), or that a new run is
// starting and the node is live again (v=false). A finished node's
// frozen clock must not bound peers' horizons — its last sent message
// would otherwise never become deliverable. No-op when ungated.
func (n *Network) SetNodeRetired(id NodeID, v bool) {
	n.checkID(id)
	if g := n.gate; g != nil {
		g.SetRetired(int(id), v)
	}
}

// SetFaults installs a fault plan, replacing any previous one and
// resetting the per-link draw counters of the seeded decision streams.
// Safe to call at any time, including while traffic is in flight: the
// plan is published as one immutable state behind an atomic pointer, so
// in-flight messages simply see either the old or the new plan. Messages
// already queued keep the arrival times they were stamped with. Panics
// if a NodeFault names a node outside the cluster.
func (n *Network) SetFaults(p FaultPlan) {
	for _, f := range p.NodeFaults {
		if f.Node < 0 || int(f.Node) >= len(n.nodes) {
			panic(fmt.Sprintf("simnet: fault plan names node %d (cluster size %d)", f.Node, len(n.nodes)))
		}
	}
	n.fs.Store(newFaultState(p, len(n.nodes)))
}

// SetRecorder attaches a protocol event recorder (nil detaches). The
// network records EvMsgSend/EvMsgRecv for queued-message traffic.
func (n *Network) SetRecorder(rec *perfmon.Recorder) { n.rec = rec }

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.nodes) }

// Link returns the link profile in use.
func (n *Network) Link() machine.Link { return n.link }

// Clock returns the virtual clock of the given node.
func (n *Network) Clock(id NodeID) *vclock.Clock { return n.nodes[id].clock }

func (n *Network) checkID(id NodeID) {
	if id < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: invalid node id %d (cluster size %d)", id, len(n.nodes)))
	}
}

// Send transmits a message from one node to another. The sender's clock is
// charged the software send cost; the arrival time reflects latency and
// payload serialization. The payload is not copied — callers must not
// mutate it after sending. Under a fault plan the message may be delayed,
// duplicated, reordered, or lost; the sender is charged either way (the
// NIC did its work — the wire ate the packet).
func (n *Network) Send(from, to NodeID, kind Kind, tag uint32, payload []byte) {
	n.checkID(from)
	n.checkID(to)
	if kind == AnyKind {
		panic("simnet: AnyKind is a receive wildcard, not a sendable kind")
	}
	src := n.nodes[from]
	fs := n.fs.Load()
	t0 := src.clock.Now()
	src.clock.AdvanceCat(vclock.CatNetwork, fs.scaledSW(from, n.link.SendSWNs))
	sendT := src.clock.Now()
	var arrive vclock.Time
	if n.topoFlat {
		arrive = sendT +
			vclock.Time(n.link.LatencyNs) +
			vclock.Time(uint64(len(payload))*uint64(n.link.NsPerByte))
	} else {
		arrive = sendT + vclock.Time(n.WireNs(from, to, len(payload)))
	}
	if fs.plan.JitterNs > 0 {
		arrive += vclock.Time(fs.roll(from, to, saltJitter) * float64(fs.plan.JitterNs))
	}
	n.stats.add(len(payload))
	if rec := n.rec; rec != nil && rec.Enabled() {
		rec.Record(int(from), perfmon.EvMsgSend, t0, vclock.Since(t0, src.clock.Now()), uint64(to), uint64(len(payload)))
	}
	if fs.canLose && fs.linkLost(from, to, sendT) {
		n.drops.Add(1)
		return
	}
	m := msgPool.Get().(*Message)
	*m = Message{From: from, To: to, Kind: kind, Tag: tag, Payload: payload, ArriveAt: arrive}
	n.deliver(m, fs)
	if g := n.gate; g != nil {
		// Never while holding an endpoint lock (engine → queue ordering).
		g.Kick()
	}
}

func (n *Network) deliver(m *Message, fs *faultState) {
	dst := n.nodes[m.To]
	// Fault draws happen before the endpoint lock is taken: the decision
	// streams are per-directed-link (sender program order), so lock hold
	// time never extends a draw's critical section.
	dup := fs.linkDup(m.From, m.To)
	var cp *Message
	if dup {
		cp = msgPool.Get().(*Message)
		*cp = *m
	}
	if fs.plan.ReorderProb > 0 {
		// The reorder draw is consumed whenever the plan can reorder —
		// regardless of queue depth — so the decision stream does not
		// depend on receiver timing. The positional swap the draw used to
		// trigger is not applied: receive selection orders by
		// (ArriveAt, seq), never by queue position, so the swap was
		// observably a no-op and would be meaningless across kind buckets.
		fs.roll(m.From, m.To, saltReorder)
	}

	dst.mu.Lock()
	m.seq = dst.nextSq
	dst.nextSq++
	dst.buckets[m.Kind] = append(dst.buckets[m.Kind], m)
	dst.pending++
	if dup {
		cp.seq = dst.nextSq
		dst.nextSq++
		dst.buckets[cp.Kind] = append(dst.buckets[cp.Kind], cp)
		dst.pending++
	}
	if dst.gated && uint64(m.ArriveAt) < dst.minArrive.Load() {
		// The dup copy shares m's arrival, so one update covers both.
		dst.minArrive.Store(uint64(m.ArriveAt))
	}
	dst.cond.Broadcast()
	dst.mu.Unlock()
}

// Recv blocks the calling node until a message of the given kind (or any
// kind, with AnyKind) matching the filter is available, removes it from
// the queue, charges receive costs, and advances the node's clock past
// the arrival time. A nil filter matches any message of the kind.
// Returns nil if the network is closed while waiting. Under a gate,
// delivery additionally waits for the message's arrival to clear the
// conservative horizon, so the chosen message is a pure function of
// virtual time. The returned message is owned by the caller; hand the
// struct back with Message.Free once it is dead to keep the send path
// allocation-free.
func (n *Network) Recv(self NodeID, kind Kind, match func(*Message) bool) *Message {
	n.checkID(self)
	ep := n.nodes[self]
	if g := n.gate; g != nil {
		return n.recvGated(g, self, ep, kind, match)
	}
	ep.mu.Lock()
	for {
		k, idx := ep.scanLocked(kind, match)
		if idx >= 0 {
			m := ep.takeLocked(k, idx)
			ep.mu.Unlock()
			return n.finishRecv(self, ep, m)
		}
		if ep.closed {
			ep.mu.Unlock()
			return nil
		}
		ep.cond.Wait()
	}
}

// recvGated is Recv under the conservative engine: the whole
// scan-and-decide round runs inside a gate session (engine lock held,
// then the endpoint lock — strictly in that order), and a candidate is
// consumed only when GateSafe proves no earlier arrival can still be
// produced. While blocked — on an empty queue or an unsafe candidate —
// the node is registered as receive-waiting so peers' horizon bounds can
// see through it. After teardown the gate is waived: determinism ends
// where the simulation does, and waiting for dead peers would deadlock
// Close.
func (n *Network) recvGated(g *vclock.Engine, self NodeID, ep *endpoint, kind Kind, match func(*Message) bool) *Message {
	g.GateBegin()
	// Registered as receive-waiting BEFORE the first safety evaluation:
	// peers' horizons may see through this node a wake-up earlier, and
	// the engine's exactness shortcut (which requires the asker to be a
	// marked receiver) applies from the first check. Sound even when the
	// first scan delivers immediately — the node cannot send while it sits
	// here, and GateRun restores the running state before any charge.
	g.GateRecvWait(int(self))
	for {
		ep.mu.Lock()
		k, idx := ep.scanLocked(kind, match)
		if idx >= 0 && (ep.closed || g.GateSafe(int(self), ep.buckets[k][idx].ArriveAt)) {
			// Cleared strictly before the delivery's clock charges:
			// from here on the node's own clock is the (sound) bound.
			g.GateRun(int(self))
			m := ep.takeLocked(k, idx)
			ep.mu.Unlock()
			g.GateEnd()
			return n.finishRecv(self, ep, m)
		}
		if idx < 0 && ep.closed {
			g.GateRun(int(self))
			ep.mu.Unlock()
			g.GateEnd()
			return nil
		}
		ep.mu.Unlock()
		g.GateWait()
	}
}

// finishRecv applies the receive-side charges and recording for a
// delivered message.
func (n *Network) finishRecv(self NodeID, ep *endpoint, m *Message) *Message {
	t0 := ep.clock.Now()
	ep.clock.AdvanceToCat(vclock.CatNetwork, m.ArriveAt)
	ep.clock.AdvanceCat(vclock.CatNetwork, n.fs.Load().scaledSW(self, n.link.RecvSWNs))
	if rec := n.rec; rec != nil && rec.Enabled() {
		rec.Record(int(self), perfmon.EvMsgRecv, t0, vclock.Since(t0, ep.clock.Now()), uint64(m.From), uint64(len(m.Payload)))
	}
	return m
}

// TryRecv is a non-blocking Recv. It returns nil when no matching message
// is queued. Under a gate it is a poll of the safe horizon: a queued
// message whose delivery cannot be proven in-order yet is treated as not
// yet arrived.
func (n *Network) TryRecv(self NodeID, kind Kind, match func(*Message) bool) *Message {
	n.checkID(self)
	ep := n.nodes[self]
	if g := n.gate; g != nil {
		g.GateBegin()
		ep.mu.Lock()
		k, idx := ep.scanLocked(kind, match)
		if idx < 0 || (!ep.closed && !g.GateSafe(int(self), ep.buckets[k][idx].ArriveAt)) {
			ep.mu.Unlock()
			g.GateEnd()
			return nil
		}
		m := ep.takeLocked(k, idx)
		ep.mu.Unlock()
		g.GateEnd()
		return n.finishRecv(self, ep, m)
	}
	ep.mu.Lock()
	k, idx := ep.scanLocked(kind, match)
	if idx < 0 {
		ep.mu.Unlock()
		return nil
	}
	m := ep.takeLocked(k, idx)
	ep.mu.Unlock()
	return n.finishRecv(self, ep, m)
}

func less(a, b *Message) bool {
	if a.ArriveAt != b.ArriveAt {
		return a.ArriveAt < b.ArriveAt
	}
	return a.seq < b.seq
}

// Broadcast sends the same payload from one node to every other node.
func (n *Network) Broadcast(from NodeID, kind Kind, tag uint32, payload []byte) {
	for id := range n.nodes {
		if NodeID(id) == from {
			continue
		}
		n.Send(from, NodeID(id), kind, tag, payload)
	}
}

// Close unblocks all pending Recv calls with nil and makes subsequent
// active-message retry attempts fail with ErrClosed. Used at teardown.
func (n *Network) Close() {
	n.closed.Store(true)
	for _, ep := range n.nodes {
		ep.mu.Lock()
		ep.closed = true
		ep.cond.Broadcast()
		ep.mu.Unlock()
	}
	if g := n.gate; g != nil {
		g.Kick()
	}
}

// Pending reports how many messages are queued at a node (for tests).
func (n *Network) Pending(id NodeID) int {
	n.checkID(id)
	ep := n.nodes[id]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.pending
}

// TotalTraffic reports cumulative message count and bytes.
func (n *Network) TotalTraffic() (msgs, bytes uint64) {
	return n.stats.Snapshot()
}
