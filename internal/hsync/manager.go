package hsync

import (
	"fmt"
	"sync"

	"hamster/internal/amsg"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/notices"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Wire describes the fabric synchronization messages travel on. It is
// everything that differs between the substrates' lock and barrier costs,
// as data: the Manager never asks which substrate it serves.
type Wire struct {
	// Msg prices one synchronization message: a request, one hop of a
	// forwarding chain, a token grant, a release, a barrier arrival, one
	// edge of the reduction tree.
	Msg CostFn
	// HandlerNs is stolen from the node that services a message — a
	// lock's home, a forwarder on a hint chain, the predecessor granting
	// a token, the parent (or manager) a barrier arrival reports to. Zero
	// means the fabric synchronizes with remote atomic operations (SAN,
	// memory bus): no CPU is interrupted, the lock word and the barrier
	// counter live in the fabric rather than at a home node, nothing
	// counts as a protocol message, and every operation pays Msg.
	HandlerNs vclock.Duration
	// LocalNs replaces Msg when the node that would service a message is
	// the caller itself (the local-home discount).
	LocalNs vclock.Duration
	// GrantNs prices the reply that grants a lock on a handler-free
	// fabric: a message on a SAN (the atomic's round trip), zero on a bus
	// (the locked transaction is the whole exchange).
	GrantNs vclock.Duration
	// Notices says that messages publishing or delivering write notices
	// carry the list as payload (16+8n bytes instead of 16). A reply
	// delivering n notices can only be priced once the list is drained,
	// so it is charged after the rendezvous, to CatNetwork, and the drop
	// it causes is recorded as EvInvalidate. Without Notices every reply
	// is payload-free: its price is known before the wait and rides the
	// rendezvous itself (VLock grantCost, VBarrier releaseCost).
	Notices bool
	// Piggyback, when set, prices a delivered notice list riding a reply
	// the single-home and central-manager paths send anyway, instead of a
	// notice message of its own.
	Piggyback func(pages int) vclock.Duration
	// Hier lets the fabric go hierarchical above Threshold nodes:
	// distributed lock queues and a topology-aligned barrier tree.
	Hier bool
}

// EthernetWire is software messaging over link under topo: handlers
// interrupt the servicing node, a node that is its own home pays a local
// call, and above Threshold nodes the fabric goes hierarchical.
func EthernetWire(link machine.Link, topo simnet.Topology) Wire {
	return Wire{
		Msg:       func(from, to, bytes int) vclock.Duration { return topo.MsgCost(link, from, to, bytes) },
		HandlerNs: link.HandlerNs,
		LocalNs:   amsg.LocalCallNs,
		Hier:      true,
	}
}

// AtomicWire is a handler-free fabric whose every operation costs op,
// with a lock's grant reply costing grant.
func AtomicWire(op, grant vclock.Duration) Wire {
	return Wire{Msg: func(_, _, _ int) vclock.Duration { return op }, GrantNs: grant}
}

// Engine is the consistency side of a synchronization boundary. The
// Manager calls both hooks on the node's own goroutine, after the
// rendezvous cost is charged and before the operation's event is recorded.
type Engine interface {
	// FlushInterval publishes the node's interval modifications and
	// returns its write notices. The returned slice becomes the Manager's.
	FlushInterval(node int) []memsim.PageID
	// InvalidatePages drops the node's stale copies of the given pages.
	// The slice is the node's scratch: valid only during the call.
	InvalidatePages(node int, pages []memsim.PageID)
}

// Config assembles a Manager.
type Config struct {
	// Name prefixes panics ("swdsm: unknown lock 7").
	Name string
	// Clocks are the node clocks, one per node.
	Clocks []*vclock.Clock
	// Wire is the fabric description.
	Wire Wire
	// Topology aligns the barrier tree with the racks when Wire.Hier.
	Topology simnet.Topology
	// Engine attaches consistency actions; nil when synchronization
	// carries none (hardware coherence, write-invalidate engines whose
	// copies are never stale).
	Engine Engine
	// Rendezvous lists barriers the substrate runs beside the manager's
	// own, so that AbortSync poisons them too.
	Rendezvous []*vclock.VBarrier

	// The remaining fields are protocol, not synchronization: what a
	// consistency protocol does with the notices a boundary moves.

	// Board, when set, is the one board every lock posts on and drains
	// (eager release consistency: a release is visible to the next
	// acquire of any lock). Nil gives each lock its own (scope).
	Board *notices.Board
	// Published runs on the releaser after a non-empty notice list was
	// posted, before the release is recorded.
	Published func(node int, pages []memsim.PageID)
	// AfterBarrier runs once the barrier's notices are applied, before
	// the crossing is counted and recorded.
	AfterBarrier func(node int, epoch uint64)
}

// msgBytes is the wire size of a bare synchronization message.
const msgBytes = 16

// NoticeBytes is the wire size of a synchronization message carrying a
// list of pages write notices.
func NoticeBytes(pages int) int { return msgBytes + 8*pages }

// Manager is the synchronization layer of a substrate: the lock table,
// the barrier, the routing of every request (local, single home,
// distributed queue; central manager, tree), the write-notice exchange
// that rides them, the per-node counters and event records, and abort.
// Substrates embed it, so its methods are their platform.Substrate
// synchronization methods.
//
// Concurrency: NewLock, LockCount, EnsureLocks and AbortSync may be
// called from any goroutine. Acquire, TryAcquire, Release and Barrier run
// on the goroutine of the node they name, one call per node at a time.
// SetRecorder, SyncStats, ResetSyncStats, ProtocolEpoch and
// RestoreProtocolState are for quiescent use.
type Manager struct {
	cfg      Config
	nodes    []*nodeState
	tree     *Tree // nil on the flat paths
	vb       *vclock.VBarrier
	exchange *notices.EpochExchange
	steal    stealAt // charges a message's interrupt; nil when handler-free
	rec      *perfmon.Recorder

	mu    sync.Mutex
	locks []*lock
}

// lock is one global lock.
type lock struct {
	// home services requests on the single-home path (round-robin, like
	// JiaJia's static lock distribution); -1 when the lock word lives in
	// the fabric and every node is remote to it.
	home  int
	vl    *vclock.VLock
	board *notices.Board // notices released under this lock, per destination
	dl    *DLock         // distributed token queue; nil on the flat paths
}

// nodeState is one node's share of the manager: owner-goroutine only.
type nodeState struct {
	acquires, barriers, msgs uint64
	epoch                    uint64
	// Reusable buffers: the drained or collected notice list and the
	// barrier's view of the lock table grow once, so steady
	// synchronization allocates nothing here.
	scratch []memsim.PageID
	locks   []*lock
}

// NewManager builds the synchronization layer for len(cfg.Clocks) nodes.
func NewManager(cfg Config) *Manager {
	n := len(cfg.Clocks)
	m := &Manager{cfg: cfg, nodes: make([]*nodeState, n), vb: vclock.NewVBarrier(n)}
	for i := range m.nodes {
		m.nodes[i] = &nodeState{}
	}
	if cfg.Wire.Hier && n > threshold {
		m.tree = NewTree(n, cfg.Topology)
	}
	if cfg.Wire.HandlerNs > 0 {
		m.steal = func(node int, at vclock.Time, d vclock.Duration) { cfg.Clocks[node].Steal(at, d) }
	}
	if cfg.Engine != nil {
		m.exchange = notices.NewEpochExchange(n)
	}
	return m
}

// SetRecorder attaches the protocol event recorder.
func (m *Manager) SetRecorder(rec *perfmon.Recorder) { m.rec = rec }

// recorder returns the recorder when events are being recorded.
func (m *Manager) recorder() *perfmon.Recorder {
	if rec := m.rec; rec != nil && rec.Enabled() {
		return rec
	}
	return nil
}

// NewLock implements platform.Substrate.
func (m *Manager) NewLock() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := len(m.locks)
	st := &lock{home: id % len(m.nodes), vl: vclock.NewVLock(), board: m.cfg.Board}
	if st.board == nil && m.cfg.Engine != nil {
		st.board = notices.NewBoard()
	}
	switch {
	case m.tree != nil:
		st.dl = NewDLock(st.vl, len(m.nodes), st.home)
	case m.cfg.Wire.HandlerNs == 0:
		st.home = -1
	}
	m.locks = append(m.locks, st)
	return id
}

// LockCount reports how many global locks exist.
func (m *Manager) LockCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.locks)
}

// EnsureLocks creates locks until at least n exist. Placement is a pure
// function of the lock id, so recreated locks match captured ones.
func (m *Manager) EnsureLocks(n int) {
	for m.LockCount() < n {
		m.NewLock()
	}
}

func (m *Manager) lock(id int) *lock {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= len(m.locks) {
		panic(fmt.Sprintf("%s: unknown lock %d", m.cfg.Name, id))
	}
	return m.locks[id]
}

// handlers reports whether messages interrupt the nodes they reach.
func (m *Manager) handlers() bool { return m.steal != nil }

// interrupt charges the handler that services one message at node, the
// message having reached it at virtual time at.
func (m *Manager) interrupt(node int, at vclock.Time) {
	if m.handlers() {
		m.steal(node, at, m.cfg.Wire.HandlerNs)
	}
}

// sent counts k protocol messages (none on a handler-free fabric).
func (m *Manager) sent(ns *nodeState, k int) {
	if m.handlers() {
		ns.msgs += uint64(k)
	}
}

// bytes is the wire size of a message carrying a list of pages notices.
func (m *Manager) bytes(pages int) int {
	if m.cfg.Wire.Notices {
		return NoticeBytes(pages)
	}
	return msgBytes
}

// deliverFlat charges the reply that brings n notices from peer over a
// single-home or central-manager path.
func (m *Manager) deliverFlat(ns *nodeState, node, peer, n int) {
	w, clk := &m.cfg.Wire, m.cfg.Clocks[node]
	if w.Piggyback != nil {
		clk.AdvanceCat(vclock.CatNetwork, w.Piggyback(n))
		return
	}
	clk.AdvanceCat(vclock.CatNetwork, w.Msg(node, peer, m.bytes(n)))
	m.sent(ns, 1)
}

// Acquire implements platform.Substrate: take the lock, then apply the
// write notices pending on it for this node.
func (m *Manager) Acquire(node, lock int) { m.acquire(node, lock, false) }

// TryAcquire implements platform.Substrate: Acquire without blocking. A
// failed try pays for its request and leaves the lock's queue and board
// untouched.
func (m *Manager) TryAcquire(node, lock int) bool { return m.acquire(node, lock, true) }

func (m *Manager) acquire(node, id int, try bool) bool {
	st, ns, clk, w := m.lock(id), m.nodes[node], m.cfg.Clocks[node], &m.cfg.Wire
	t0 := clk.Now()

	// Request: reach whoever answers for the lock. A distributed queue
	// forwards along the probable-holder chain (one message per hop on the
	// requester's timeline, one interrupt per forwarder); a try only
	// prices the chain — one probe, no state claimed until it succeeds.
	peer, hops := st.home, 1
	var req vclock.Duration
	switch {
	case st.dl != nil && try:
		peer, req = st.dl.probe(node, msgBytes, w.Msg)
	case st.dl != nil:
		peer, req, hops = st.dl.requestAt(node, clk.OwnNow(), msgBytes, w.Msg, m.steal, w.HandlerNs)
	case peer != node:
		req = w.Msg(node, peer, msgBytes)
		m.interrupt(peer, clk.OwnNow()+vclock.Time(req))
	}
	remote := peer != node
	if remote {
		m.sent(ns, hops)
	}
	var grant vclock.Duration // a payload-free grant rides the handoff
	switch {
	case !remote:
		req = w.LocalNs
	case w.Notices: // priced below, once the list is drained
	case !m.handlers():
		grant = w.GrantNs
	case st.dl != nil:
		grant = w.Msg(peer, node, msgBytes)
	}

	if !try {
		st.vl.Acquire(clk, req, grant)
	} else if !st.vl.TryAcquire(clk, req, grant) {
		return false
	} else if st.dl != nil {
		st.dl.commit(node)
	}
	if remote && st.dl != nil {
		// The predecessor hands the token over: one grant message, its
		// interrupt paid by the node that held the tail of the queue when
		// it sent the grant, one grant wire before the requester got it.
		m.interrupt(peer, clk.OwnNow()-vclock.Time(grant))
		m.sent(ns, 1)
	}

	var pages []memsim.PageID
	if m.cfg.Engine != nil {
		pages = st.board.TakeInto(node, ns.scratch[:0])
		ns.scratch = pages
		if w.Notices && remote {
			if st.dl != nil {
				clk.AdvanceCat(vclock.CatNetwork, w.Msg(peer, node, m.bytes(len(pages))))
			} else {
				m.deliverFlat(ns, node, peer, len(pages))
			}
		}
		m.cfg.Engine.InvalidatePages(node, pages)
	}
	ns.acquires++
	if rec := m.recorder(); rec != nil {
		rec.Record(node, perfmon.EvLockAcquire, t0, vclock.Since(t0, clk.Now()), uint64(id), 0)
		if w.Notices && len(pages) > 0 {
			rec.Record(node, perfmon.EvInvalidate, clk.Now(), 0, uint64(len(pages)), 0)
		}
	}
	return true
}

// Release implements platform.Substrate: publish the interval's write
// notices on the lock, then free it. A distributed queue keeps the token
// with the releaser — the next acquirer's grant pays the handoff.
func (m *Manager) Release(node, id int) {
	st, ns, clk, w := m.lock(id), m.nodes[node], m.cfg.Clocks[node], &m.cfg.Wire
	t0 := clk.Now()
	var pages []memsim.PageID
	if m.cfg.Engine != nil {
		pages = m.cfg.Engine.FlushInterval(node)
		st.board.AddForOthers(node, len(m.nodes), pages)
		if len(pages) > 0 {
			if m.cfg.Published != nil {
				m.cfg.Published(node, pages)
			}
			if rec := m.recorder(); rec != nil {
				rec.Record(node, perfmon.EvWriteNotice, clk.Now(), 0, uint64(len(pages)), uint64(id))
			}
		}
	}
	rel := w.LocalNs
	if st.dl == nil && st.home != node {
		rel = w.Msg(node, st.home, m.bytes(len(pages)))
		m.interrupt(st.home, clk.OwnNow()+vclock.Time(rel))
		m.sent(ns, 1)
	}
	st.vl.Release(clk, rel)
	if rec := m.recorder(); rec != nil {
		rec.Record(node, perfmon.EvLockRelease, t0, vclock.Since(t0, clk.Now()), uint64(id), 0)
	}
}

// Barrier implements platform.Substrate: every node publishes its
// interval's notices, meets the others, and applies theirs — plus
// whatever is still pending for it on any lock, a barrier being a global
// synchronization point. Node 0 is the manager and the tree's root.
func (m *Manager) Barrier(node int) {
	ns, clk, w := m.nodes[node], m.cfg.Clocks[node], &m.cfg.Wire
	t0 := clk.Now()
	epoch := ns.epoch
	ns.epoch++
	var mine []memsim.PageID
	if m.cfg.Engine != nil {
		if mine = m.cfg.Engine.FlushInterval(node); len(mine) > 0 {
			m.exchange.Deposit(epoch, node, mine)
			if rec := m.recorder(); rec != nil {
				rec.Record(node, perfmon.EvWriteNotice, clk.Now(), 0, uint64(len(mine)), ^uint64(0))
			}
		}
	}

	// Arrival, and the release wave when it is payload-free.
	var arrive, wave vclock.Duration
	switch {
	case !m.handlers() && (m.tree == nil || node == 0):
		// The counter lives in the fabric: one operation in, one out.
		arrive = w.Msg(node, 0, msgBytes)
		wave = arrive
	case node == 0:
		arrive = w.LocalNs
	case m.tree != nil:
		// The arrival climbs the reduction tree — its full path bounds
		// when the root can release — but only the direct parent takes an
		// interrupt; ancestors see one aggregated message per subtree.
		arrive = m.tree.PathCost(node, m.bytes(len(mine)), w.Msg)
		parent := m.tree.parentOf(node)
		m.interrupt(parent, clk.OwnNow()+vclock.Time(w.Msg(node, parent, m.bytes(len(mine)))))
		m.sent(ns, 1)
		if !w.Notices {
			wave = arrive
			m.sent(ns, 1)
		}
	default:
		arrive = w.Msg(node, 0, m.bytes(len(mine)))
		m.interrupt(0, clk.OwnNow()+vclock.Time(arrive))
		m.sent(ns, 1)
	}
	m.vb.Arrive(clk, arrive, wave)

	if m.cfg.Engine != nil {
		others := m.exchange.CollectOthers(epoch, node, ns.scratch[:0])
		ns.scratch = others
		if w.Notices && node != 0 {
			if m.tree != nil {
				// The release wave carries the merged notices back down.
				clk.AdvanceCat(vclock.CatNetwork, m.tree.PathCost(node, m.bytes(len(others)), w.Msg))
				m.sent(ns, 1)
			} else {
				m.deliverFlat(ns, node, 0, len(others))
			}
		}
		m.cfg.Engine.InvalidatePages(node, others)
		if rec := m.recorder(); rec != nil && w.Notices && len(others) > 0 {
			rec.Record(node, perfmon.EvInvalidate, clk.Now(), 0, uint64(len(others)), 0)
		}
		m.mu.Lock()
		ns.locks = append(ns.locks[:0], m.locks...)
		m.mu.Unlock()
		for _, st := range ns.locks {
			ns.scratch = st.board.TakeInto(node, ns.scratch[:0])
			m.cfg.Engine.InvalidatePages(node, ns.scratch)
		}
	}
	if m.cfg.AfterBarrier != nil {
		m.cfg.AfterBarrier(node, epoch)
	}
	ns.barriers++
	if rec := m.recorder(); rec != nil {
		rec.Record(node, perfmon.EvBarrier, t0, vclock.Since(t0, clk.Now()), epoch, 0)
	}
}

// AbortSync poisons the barrier, every listed rendezvous and every lock,
// so that no goroutine stays blocked waiting for a failed peer: waiters,
// and anyone arriving later, panic with the reason. The core runtime
// calls it from its per-node panic recovery.
func (m *Manager) AbortSync(reason string) {
	m.vb.Abort(reason)
	for _, vb := range m.cfg.Rendezvous {
		vb.Abort(reason)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.locks {
		st.vl.Abort(reason)
	}
}

// SyncStats adds the node's synchronization counters to s.
func (m *Manager) SyncStats(node int, s platform.Stats) platform.Stats {
	ns := m.nodes[node]
	s.LockAcquires += ns.acquires
	s.BarrierCrossings += ns.barriers
	s.ProtocolMsgs += ns.msgs
	return s
}

// ResetSyncStats zeroes the node's synchronization counters.
func (m *Manager) ResetSyncStats(node int) {
	ns := m.nodes[node]
	ns.acquires, ns.barriers, ns.msgs = 0, 0, 0
}

// ProtocolEpoch returns the node's barrier-interval counter.
func (m *Manager) ProtocolEpoch(node int) uint64 { return m.nodes[node].epoch }

// RestoreProtocolState rewinds the node's barrier-interval counter
// (checkpoint restore, before the run).
func (m *Manager) RestoreProtocolState(node int, epoch uint64) { m.nodes[node].epoch = epoch }
