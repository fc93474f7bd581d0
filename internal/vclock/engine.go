package vclock

// Conservative parallel intra-cell execution: the lookahead engine that
// lets one simulation's node goroutines run on real cores without ever
// observing a message out of virtual order.
//
// The free-running scheduler (the sequential reference path) lets every
// node goroutine execute at host speed and relies on protocol discipline
// — unique receive filters, quiescent-instant reconciliation — to keep
// results schedule-independent. The Engine makes that safety structural,
// in the style of Chandy–Misra–Bryant conservative discrete-event
// simulation: a receiver may consume a queued message stamped with
// virtual arrival T only when no peer can still produce a message that
// would arrive before T. The proof obligation is a lower bound on every
// peer's next-send time:
//
//   - A running node p's clock only moves forward, and a send stamps its
//     departure at or after the sender's current clock, so any future
//     message from p arrives no earlier than clock(p) + lookahead(p→r),
//     where lookahead is the minimum virtual wire latency from p to r —
//     topology-aware: a rack-local peer gives a tighter horizon than a
//     cross-pod one. The lookahead deliberately EXCLUDES the sender-side
//     software cost: a message already charged but not yet enqueued (in
//     flight inside Send) has its software cost spent, so only the wire
//     latency still separates the sender's visible clock from the
//     arrival stamp.
//
//   - A node blocked in a queued receive cannot send until it consumes a
//     message, and consuming advances its clock to at least the consumed
//     arrival. Its next-send bound is therefore the earliest arrival it
//     could consume: the minimum over its queued messages and over what
//     its peers could still send it — a recursive bound the engine
//     resolves with a Dijkstra pass over activation times (lookahead
//     edges are non-negative, so finalizing nodes in increasing
//     activation order is exact). This is what replaces CMB null
//     messages: an idle worker that finished early does not block the
//     cluster's horizon forever, because its activation is provably in
//     the future of whatever would have to wake it.
//
//   - Nodes blocked in virtual-time synchronization (barriers, locks)
//     are treated as running: their frozen clock is a sound — merely
//     loose — bound, since every primitive reconciles a waiter's clock
//     past the release time before it can issue another send.
//
//   - A fail-stopped node no longer bounds anyone: the fault plan eats
//     everything it sends, so MarkDown lifts it out of the horizon.
//
// Equal arrivals need no special case: per-receiver sequence numbers
// break ties, and a message still in the future always enqueues with a
// larger sequence number than anything already queued, so delivering a
// queued message at exactly its horizon is safe.
//
// The engine never touches a clock: gating delays host-time delivery
// decisions, not virtual charges, so a gated run's virtual times,
// checksums, statistics, and event streams are identical to the
// sequential reference schedule (pinned by internal/bench's pnodes
// identity gates).
//
// Published bounds. Gate decisions read an engine-local table, not the
// live clocks: for each node, its clock and its earliest queued arrival
// as of its own last gate event — its send (Kick publishes the sender's
// clock and the receiver's queue minimum), its receive-wait, the arrival
// it consumes (GateRun) — plus its running, receive-waiting, retired and
// down marks. Every entry stays a lower bound on the node's next send:
// clocks are monotone; a consumer's clock moves to at least the
// activation the table gave it; and a message enqueued but not yet
// published is covered by its sender's entry, because the sender is
// still running in the table (it publishes its receiver's queue minimum
// before it can itself become receive-waiting) and the message arrives
// no earlier than the sender's published clock plus the lookahead.
// (Publishing a peer's clock therefore reads every queue minimum after
// it; the one window no order closes, a stolen charge landing on a
// sender between its departure stamp and its enqueue, is shared with the
// live evaluation.) The activations derived from the table are lower
// bounds too, and they only rise between runs. For a uniform lookahead
// (every flat topology) each derivation keeps the two smallest
// activations, so one receiver's test is O(1); other topologies run the
// Dijkstra pass over the same table. Horizon alone evaluates live state,
// exactly.
//
// Wake slots. Each gated receiver parks on its own slot, recording the
// earliest arrival it could take: its candidate, lowered when a send
// publishes an earlier queue minimum. A send, a receive-wait, a down or
// retire mark, a poller's live refresh, or the liveness tick re-derives
// the table and wakes only the parked receivers whose recorded arrival
// has become safe; only WakeAll (Network.Close) wakes everyone. Progress
// made without a gate event (a bare clock advance, a barrier release, a
// stolen handler charge) is not published until the tick, which
// republishes the live entries at gateTick and also settles, exactly,
// the receivers the table's inclusive test cannot decide — so liveness
// needs no hook on the simulator's hottest paths. Host-time wake-up latency
// never affects results: safety is a fact about the future sends, so
// once a delivery is safe it stays safe, and the chosen message is a
// pure function of virtual state.

import (
	"fmt"
	"sync"
	"time"
)

// gateTick is the host-time period of the liveness tick: while a
// receiver is parked, the tick republishes every live clock and the
// waiting nodes' queue minima and wakes whoever that made safe. Purely a liveness knob:
// results never depend on it.
const gateTick = 100 * time.Microsecond

// infTime is the "never" activation bound.
const infTime = ^uint64(0)

// Never is the arrival a parked receiver records when its queue holds no
// message it would take (see GateWait).
const Never = Time(infTime)

// Engine tracks one simulation's node clocks and computes conservative
// delivery horizons. One Engine gates one message fabric; the network
// drives it through the Gate* session API (see internal/simnet).
type Engine struct {
	mu sync.Mutex

	clocks []*Clock
	// la[p][r] is the lookahead: a lower bound on the virtual latency of
	// any not-yet-enqueued message from p to r (wire latency plus
	// topology hop penalty; no software costs, see the package comment).
	la [][]Duration
	// queueMin reports the earliest queued arrival at a node (ok=false
	// when its queue holds nothing). Called with the engine lock held,
	// for ANY node — including one whose own receive is being gated — so
	// the implementation must be lock-free with respect to both the
	// engine and the queues (simnet keeps a per-endpoint atomic).
	queueMin func(node int) (Time, bool)
	// laPos records that every off-diagonal lookahead is strictly
	// positive — the precondition of GateSafe's exactness shortcut.
	laPos bool
	// laUniform records that every off-diagonal lookahead equals la0 —
	// true for any flat topology — which collapses the activation
	// Dijkstra to a closed form (see minsUniformLocked).
	laUniform bool
	la0       Duration

	recvWait []bool // node is blocked in a queued receive
	down     []bool // node is fail-stopped; no longer bounds horizons
	retired  []bool // node's program returned; it will never send again

	// The published table (see the package comment): pclk[p] and
	// pqmin[p] are node p's clock and earliest queued arrival (infTime
	// when empty) as of its last gate event. pclk only rises, except
	// when a new run re-admits the node. initT and waitT restate each
	// entry for the derivation (see restateLocked).
	pclk  []uint64
	pqmin []uint64
	initT minTree
	waitT minTree
	// cacheVal is the inclusive activation vector derived from the table
	// (no node excluded: an extra relaxation source never raises a
	// shortest activation, so it lower-bounds every receiver's exclusive
	// vector). min1 and min2 are its two smallest entries and min1At the
	// holder of min1 (-1 when every entry is infTime), kept for uniform
	// lookaheads only. stale marks a table change since the derivation.
	cacheVal   []uint64
	min1, min2 uint64
	min1At     int
	stale      bool

	// Wake slots, one per node: a receiver parked on wake[r] (parked[r])
	// is woken once its horizon reaches want[r], the earliest arrival it
	// could take. minWant lower-bounds want over the parked receivers, so
	// an event that cannot reach it skips the wake pass.
	wake    []sync.Cond
	want    []uint64
	parked  []bool
	minWant uint64
	waiters int
	ticking bool

	// Scratch of the exact live evaluation (Horizon and GateSafe's last
	// resort), reused under mu so it allocates nothing. snap holds one
	// coherent clock snapshot per pass.
	val  []uint64
	done []bool
	snap []uint64
}

// NewEngine creates an engine over the given clocks with the given
// lookahead matrix. la[p][r] must lower-bound the wire latency of any
// future message p→r; la[p][p] is ignored.
func NewEngine(clocks []*Clock, la [][]Duration) *Engine {
	n := len(clocks)
	if len(la) != n {
		panic(fmt.Sprintf("vclock: lookahead matrix is %dx, cluster size %d", len(la), n))
	}
	for i, row := range la {
		if len(row) != n {
			panic(fmt.Sprintf("vclock: lookahead row %d has %d entries, cluster size %d", i, len(row), n))
		}
	}
	e := &Engine{
		clocks:   clocks,
		la:       la,
		laPos:    true,
		recvWait: make([]bool, n),
		down:     make([]bool, n),
		retired:  make([]bool, n),
		pclk:     make([]uint64, n),
		pqmin:    make([]uint64, n),
		initT:    newMinTree(n),
		waitT:    newMinTree(n),
		cacheVal: make([]uint64, n),
		stale:    true,
		wake:     make([]sync.Cond, n),
		want:     make([]uint64, n),
		parked:   make([]bool, n),
		minWant:  infTime,
		val:      make([]uint64, n),
		done:     make([]bool, n),
		snap:     make([]uint64, n),
	}
	for i := range e.wake {
		e.wake[i].L = &e.mu
		e.pqmin[i] = infTime
		e.restateLocked(i)
	}
	e.laUniform = true
	first := true
	for p := range la {
		for r, d := range la[p] {
			if p == r {
				continue
			}
			if d <= 0 {
				e.laPos = false
			}
			if first {
				e.la0, first = d, false
			} else if d != e.la0 {
				e.laUniform = false
			}
		}
	}
	return e
}

// SetQueueMin installs the pending-queue probe (see the field) and
// publishes the live entries through it. Must be called before any
// gated traffic.
func (e *Engine) SetQueueMin(fn func(node int) (Time, bool)) {
	e.mu.Lock()
	e.queueMin = fn
	e.publishLiveLocked()
	e.mu.Unlock()
}

// GateBegin enters a gated delivery session: it acquires the engine
// lock, under which the caller may scan its queue, evaluate GateSafe,
// and park with GateWait. Lock ordering is engine → queue: queue locks
// are only ever taken with the engine lock already held (or with no
// engine involvement at all, on the sender's enqueue path).
func (e *Engine) GateBegin() { e.mu.Lock() }

// GateEnd leaves the session.
func (e *Engine) GateEnd() { e.mu.Unlock() }

// GateSafe reports whether a message with virtual arrival t may be
// delivered to node self: no peer can still produce an earlier arrival.
// A receive-waiting self whose earliest queued arrival is t or later is
// answered from the published table alone: for it the inclusive test
// fails only where t is unsafe or the table lags (see
// inclusiveExactLocked), so it parks next and the first gate event or
// tick that lets the table prove t safe wakes it, without reading every
// live clock and queue here. Any other asker — a
// poller (TryRecv), or a receiver whose filter skips an earlier queued
// message — is answered exactly, as the tick answers it too. Requires
// GateBegin. The caller may hold self's queue lock; the engine probes
// only OTHER nodes' queues.
func (e *Engine) GateSafe(self int, t Time) bool {
	if e.tableBoundLocked(self) >= uint64(t) {
		return true
	}
	if e.inclusiveExactLocked(self, uint64(t)) {
		return false
	}
	// Running nodes may have advanced without a gate event since they
	// last published; fold the live state in (waking whom that proves
	// safe) and ask again, then exactly: the table's test is inclusive.
	if e.publishLiveLocked() {
		e.wakeSafeLocked()
		if e.tableBoundLocked(self) >= uint64(t) {
			return true
		}
	}
	return e.boundLocked(self) >= uint64(t)
}

// GateRecvWait marks self as blocked in a queued receive and publishes
// its clock and queue minimum: it will not send until it consumes a
// message, which peers' horizon bounds may exploit. A blocked node's
// bound is never tighter than its running bound, so the transition can
// only unblock peers — hence the wake pass. Requires GateBegin.
func (e *Engine) GateRecvWait(self int) {
	e.recvWait[self] = true
	e.publishLocked(self)
	e.wakeSafeLocked()
}

// GateRun clears the receive-wait mark. Requires GateBegin. Must be
// called before the delivery's clock charges are applied, so the
// running state (a plain clock lower bound) is in force whenever the
// node's clock can move. The node's published clock becomes the
// activation the table gave it: the message it consumes arrives at or
// after that activation, and its clock then moves to at least the
// arrival, so the entry stays a lower bound on its next send and no
// peer's bound drops.
func (e *Engine) GateRun(self int) {
	e.pclk[self] = max(e.pclk[self], e.activationLocked(self))
	e.recvWait[self] = false
	e.restateLocked(self)
}

// GateWait parks self on its wake slot until its horizon reaches at, the
// earliest queued arrival it would take (Never when it would take
// nothing queued), or until a send to self publishes an earlier one. The
// engine lock is released while parked. Requires GateBegin.
func (e *Engine) GateWait(self int, at Time) {
	e.want[self], e.parked[self] = uint64(at), true
	e.minWant = min(e.minWant, uint64(at))
	e.waiters++
	if !e.ticking {
		e.ticking = true
		go e.tickLoop()
	}
	for e.parked[self] {
		e.wake[self].Wait()
	}
	e.waiters--
}

// Kick publishes a send from → to: the sender's clock and the
// receiver's queue minimum. It then wakes the parked receivers the send
// made safe — to, when the new message may be the one it takes and the
// table already proves it safe, and any receiver the sender's progress
// unblocked. Senders call it after enqueuing; it must never be called
// while holding a queue lock.
func (e *Engine) Kick(from, to int) {
	e.mu.Lock()
	e.pclk[from] = max(e.pclk[from], uint64(e.clocks[from].Now()))
	e.restateLocked(from)
	q := e.queueMinLocked(to)
	e.pqmin[to] = q
	e.restateLocked(to)
	if e.parked[to] && q < e.want[to] {
		e.want[to] = q
		e.minWant = min(e.minWant, q)
	}
	e.wakeSafeLocked()
	e.mu.Unlock()
}

// WakeAll wakes every parked receiver, whatever its horizon: the network
// is closing and its receivers return what they hold.
func (e *Engine) WakeAll() {
	e.mu.Lock()
	for r, p := range e.parked {
		if p {
			e.wakeLocked(r)
		}
	}
	e.mu.Unlock()
}

// MarkDown removes a fail-stopped node from every horizon: the fault
// plan loses everything the node sends from its crash point on, so its
// frozen clock must not hold back the survivors. Fail-stop is permanent
// for a run.
func (e *Engine) MarkDown(node int) {
	e.mu.Lock()
	e.down[node] = true
	e.restateLocked(node)
	e.wakeSafeLocked()
	e.mu.Unlock()
}

// SetRetired marks (or unmarks) a node whose program has returned: it
// will never send again, so — like a down node — its frozen clock stops
// bounding peers' horizons. Without this, the last message a node sends
// before finishing could never clear the horizon (the finished sender's
// clock would sit forever short of the arrival stamp) and late receivers
// would deadlock. The runtime retires each node as its SPMD function
// returns and un-retires everyone when a new run starts.
func (e *Engine) SetRetired(node int, v bool) {
	e.mu.Lock()
	e.retired[node] = v
	if !v {
		// Re-admission is the one transition that TIGHTENS state: the
		// node's entry restarts from its live clock, which may lie below
		// what the table last credited it with.
		e.pclk[node] = uint64(e.clocks[node].Now())
		e.pqmin[node] = e.queueMinLocked(node)
	}
	e.restateLocked(node)
	if v {
		e.wakeSafeLocked()
	}
	e.mu.Unlock()
}

// Horizon returns the current conservative bound on the earliest
// arrival any peer could still produce at node self, evaluated exactly on
// live state (for monitoring and tests; infTime-capped saturating
// arithmetic).
func (e *Engine) Horizon(self int) Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Time(e.boundLocked(self))
}

// tickLoop is the liveness tick: while any receiver is parked it
// republishes the live entries at gateTick, so progress made without a
// gate event (barrier releases, stolen charges) reaches the table, and
// wakes the receivers that progress made safe. Exits as soon as nobody
// waits; restarted lazily by the next GateWait.
func (e *Engine) tickLoop() {
	for {
		time.Sleep(gateTick)
		e.mu.Lock()
		if e.waiters == 0 {
			e.ticking = false
			e.mu.Unlock()
			return
		}
		e.tickLocked()
		e.mu.Unlock()
	}
}

// tickLocked is one tick: republish the live entries, then wake every
// parked receiver whose recorded arrival is safe. Requires mu.
func (e *Engine) tickLocked() {
	e.publishLiveLocked()
	e.wakeSafeLocked()
	for r, p := range e.parked {
		// The inclusive table test can fail where the exact one passes;
		// the tick settles those receivers exactly.
		if w := e.want[r]; p && w != infTime && !e.inclusiveExactLocked(r, w) && e.boundLocked(r) >= w {
			e.wakeLocked(r)
		}
	}
}

// wakeSafeLocked wakes every parked receiver whose recorded arrival the
// table now proves safe. Requires mu.
func (e *Engine) wakeSafeLocked() {
	if e.waiters == 0 {
		return
	}
	e.deriveLocked()
	if e.laUniform && satAdd(e.min1, uint64(e.la0)) < e.minWant {
		// Every receiver but min1's holder has bound min1+la0, below
		// every recorded arrival: only that holder could wake.
		if a := e.min1At; a < 0 || !e.parked[a] || satAdd(e.min2, uint64(e.la0)) < e.want[a] {
			return
		}
	}
	e.minWant = infTime
	for r, p := range e.parked {
		// A receiver with nothing to take waits for a send's Kick, not
		// for the horizon.
		if !p || e.want[r] == infTime {
			continue
		}
		if e.tableBoundLocked(r) >= e.want[r] {
			e.wakeLocked(r)
		} else {
			e.minWant = min(e.minWant, e.want[r])
		}
	}
}

// wakeLocked empties r's slot and wakes its receiver. Requires mu.
func (e *Engine) wakeLocked(r int) {
	e.parked[r], e.want[r] = false, infTime
	e.wake[r].Broadcast()
}

// inclusiveExactLocked reports whether the table's inclusive test (self's
// own activation may relax its peers') is exact for a delivery at t to
// self: when self is receive-waiting with earliest queued arrival >= t
// and every lookahead is strictly positive, an inclusive failure is also
// an exact failure. Proof sketch: order the relaxations that produced
// the failing witness val_incl[p*] + la[p*][self] < t. If the witness
// chain passes through self, self was activated either by its own queue
// (>= t, so every downstream value is >= t + la > t — it cannot be the
// failing witness) or by some peer q with val[q] + la[q][self] < its
// activation; but q also bounds self DIRECTLY by val[q] + la[q][self], a
// self-free witness that is no larger (relaxation floors are monotone:
// lowering a value at any stage never raises a later one). Induction
// yields a self-free failing witness, which evaluates identically in the
// exclusive graph — so boundLocked(self) < t too. Requires mu.
func (e *Engine) inclusiveExactLocked(self int, t uint64) bool {
	return e.laPos && e.recvWait[self] && e.queueMinLocked(self) >= t
}

// publishLocked publishes node p's live clock and queue minimum, for p's
// own gate events. Requires mu.
func (e *Engine) publishLocked(p int) {
	e.pclk[p] = max(e.pclk[p], uint64(e.clocks[p].Now()))
	e.pqmin[p] = e.queueMinLocked(p)
	e.restateLocked(p)
}

// restateLocked restates node p's table entry for the derivation: in
// initT, its activation before any relaxation (its published clock when
// running, the later of that clock and its queue minimum when
// receive-waiting, infTime when it no longer sends); in waitT, its
// published clock when receive-waiting, infTime otherwise — the floor a
// relaxation into p respects. O(log n). Requires mu.
func (e *Engine) restateLocked(p int) {
	init, wait := e.pclk[p], infTime
	switch {
	case e.down[p] || e.retired[p]:
		init = infTime
	case e.recvWait[p]:
		init, wait = max(e.pclk[p], e.pqmin[p]), e.pclk[p]
	}
	e.initT.set(p, init)
	e.waitT.set(p, wait)
	e.stale = true
}

// publishLiveLocked publishes the entries that go stale between gate
// events: every live node's clock, which moves without one, then the
// queue minimum of every receive-waiting node, which a sender between
// its enqueue and its Kick has not published yet. The minima are read
// after the clocks because publishing a peer's clock is sound only
// together with them: a sender whose clock has moved past a message it
// enqueued but has not kicked no longer covers that message, so the
// message must already be in its receiver's entry. (A running node's
// minimum enters its entry at its receive-wait.) Reports whether any
// entry moved. Requires mu.
func (e *Engine) publishLiveLocked() bool {
	moved := false
	for p, c := range e.clocks {
		if e.down[p] || e.retired[p] {
			continue
		}
		if now := uint64(c.Now()); now > e.pclk[p] {
			e.pclk[p], moved = now, true
			e.restateLocked(p)
		}
	}
	for p := range e.clocks {
		if !e.recvWait[p] || e.down[p] || e.retired[p] {
			continue
		}
		if q := e.queueMinLocked(p); q != e.pqmin[p] {
			e.pqmin[p], moved = q, true
			e.restateLocked(p)
		}
	}
	return moved
}

// queueMinLocked is the queue probe with infTime for an empty queue.
// Requires mu.
func (e *Engine) queueMinLocked(p int) uint64 {
	if e.queueMin != nil {
		if t, ok := e.queueMin(p); ok {
			return uint64(t)
		}
	}
	return infTime
}

// tableBoundLocked is node self's delivery bound from the published
// table: the smallest activation of any other node plus its lookahead to
// self. Requires mu.
func (e *Engine) tableBoundLocked(self int) uint64 {
	e.deriveLocked()
	if !e.laUniform {
		return e.cacheBoundLocked(self)
	}
	m := e.min1
	if self == e.min1At {
		m = e.min2
	}
	return satAdd(m, uint64(e.la0))
}

// activationLocked is node p's activation in the derived vector.
// Requires mu.
func (e *Engine) activationLocked(p int) uint64 {
	e.deriveLocked()
	if e.laUniform {
		return min(e.initT.val[p], max(e.waitT.val[p], satAdd(e.min1, uint64(e.la0))))
	}
	return e.cacheVal[p]
}

// deriveLocked recomputes the activation vector when the table changed.
// Requires mu.
func (e *Engine) deriveLocked() {
	if !e.stale {
		return
	}
	if e.laUniform {
		e.minsUniformLocked()
	} else {
		e.allBoundsGenericLocked()
	}
	e.stale = false
}

// boundLocked computes a lower bound on the earliest virtual arrival of
// any not-yet-queued message at node self, exactly, from live clocks and
// queue minima. Requires mu.
//
// val[p] is a lower bound on node p's next-send time: a running node's
// clock (final immediately), or, for a node blocked in a queued
// receive, its activation time — the earliest arrival it could consume,
// resolved by a Dijkstra pass because activations feed each other
// through non-negative lookahead edges. self never contributes: its own
// next send happens only after this delivery completes, and anything it
// influences transitively arrives strictly later than the candidate.
func (e *Engine) boundLocked(self int) uint64 {
	val, done := e.val, e.done
	e.snapClocksLocked()
	for p := range val {
		switch {
		case p == self || e.down[p] || e.retired[p]:
			val[p], done[p] = infTime, true
		case !e.recvWait[p]:
			val[p], done[p] = e.snap[p], true
		default:
			// Blocked receiver: tentative activation from its own queue;
			// peer contributions are relaxed in below.
			val[p], done[p] = max(e.snap[p], e.queueMinLocked(p)), false
		}
	}
	e.dijkstraLocked(val, done, e.snap)
	bound := infTime
	for p := range val {
		if p == self || e.down[p] || e.retired[p] {
			continue
		}
		if b := satAdd(val[p], uint64(e.la[p][self])); b < bound {
			bound = b
		}
	}
	return bound
}

// dijkstraLocked completes an activation vector: it relaxes the
// finalized senders into the tentative receivers, then finalizes those in
// increasing activation order (edges la >= 0), each floored at its
// clock in clk. Requires mu.
func (e *Engine) dijkstraLocked(val []uint64, done []bool, clk []uint64) {
	for p := range val {
		if done[p] && val[p] != infTime {
			e.relaxLocked(val, done, clk, p)
		}
	}
	for {
		best, bestV := -1, infTime
		for p := range val {
			if !done[p] && val[p] < bestV {
				best, bestV = p, val[p]
			}
		}
		if best < 0 {
			return
		}
		done[best] = true
		e.relaxLocked(val, done, clk, best)
	}
}

// cacheBoundLocked folds the inclusive activation vector into a
// delivery bound for node self. Requires mu and a current vector.
func (e *Engine) cacheBoundLocked(self int) uint64 {
	bound := infTime
	for p := range e.clocks {
		if p == self || e.down[p] || e.retired[p] {
			continue
		}
		if b := satAdd(e.cacheVal[p], uint64(e.la[p][self])); b < bound {
			bound = b
		}
	}
	return bound
}

// minsUniformLocked derives the two smallest entries of the inclusive
// activation vector for a uniform lookahead matrix (every off-diagonal
// entry la0 — any flat topology) without computing the vector. On a
// complete graph with one edge weight, a chain of two or more hops costs
// at least 2*la0 past its source, so the only relaxation that can ever
// win is one hop from the globally minimal activation m1: val[r] =
// min(init[r], max(clock_r, m1+la0)) for a receive-waiting r. The m1
// holder a keeps val[a] = m1 (every source is >= m1), so min1 = m1, and
// the smallest entry elsewhere is the smaller of the second-smallest
// init and one hop from m1 floored at the smallest other waiting clock
// (max with a constant is monotone). Three tree queries: O(log n).
// Requires mu.
func (e *Engine) minsUniformLocked() {
	m1, a := e.initT.min()
	if m1 == infTime {
		e.min1, e.min2, e.min1At = infTime, infTime, -1
		return
	}
	w, b := e.waitT.min()
	if b == a {
		w = e.waitT.minWithout(a)
	}
	e.min1, e.min1At = m1, a
	e.min2 = min(e.initT.minWithout(a), max(w, satAdd(m1, uint64(e.la0))))
}

// allBoundsGenericLocked derives the inclusive activation vector from
// the table with the exact Dijkstra pass, for an arbitrary lookahead
// matrix. Requires mu.
func (e *Engine) allBoundsGenericLocked() {
	val, done := e.cacheVal, e.done
	for p := range val {
		val[p] = e.initT.val[p]
		done[p] = !e.recvWait[p] || e.down[p] || e.retired[p]
	}
	e.dijkstraLocked(val, done, e.pclk)
}

// relaxLocked lowers tentative activations reachable from the finalized
// node p: a send leaving p at val[p] can wake receiver q no earlier
// than val[p] + la[p][q], floored at q's own clock in clk (a snapshot or
// the table — an older clock is merely a looser sound floor).
func (e *Engine) relaxLocked(val []uint64, done []bool, clk []uint64, p int) {
	for q := range e.clocks {
		if done[q] {
			continue
		}
		cand := max(clk[q], satAdd(val[p], uint64(e.la[p][q])))
		if cand < val[q] {
			val[q] = cand
		}
	}
}

// snapClocksLocked takes one coherent clock snapshot for a Dijkstra
// pass. Requires mu.
func (e *Engine) snapClocksLocked() {
	for p, c := range e.clocks {
		e.snap[p] = uint64(c.Now())
	}
}

// minTree is a tournament tree over a fixed set of values: each inner
// node records the position of the smallest value below it, so a point
// update is O(log n), the minimum O(1) and the minimum over every
// position but one O(log n). Ties go to the lower position.
type minTree struct {
	val []uint64 // the values, padded with infTime to a power of two >= 2
	win []int32  // win[j], 1 <= j < len(val): position of the minimum under inner node j
}

func newMinTree(n int) minTree {
	size := 2
	for size < n {
		size <<= 1
	}
	t := minTree{val: make([]uint64, size), win: make([]int32, size)}
	for p := range t.val {
		t.val[p] = infTime
	}
	for j := size - 1; j >= 1; j-- {
		t.play(j)
	}
	return t
}

// pos is the position of the minimum under tree node j (a leaf when
// j >= len(val)).
func (t *minTree) pos(j int) int {
	if j >= len(t.val) {
		return j - len(t.val)
	}
	return int(t.win[j])
}

// play decides inner node j from its two children.
func (t *minTree) play(j int) {
	l, r := t.pos(2*j), t.pos(2*j+1)
	if t.val[r] < t.val[l] {
		l = r
	}
	t.win[j] = int32(l)
}

func (t *minTree) set(p int, v uint64) {
	if t.val[p] == v {
		return
	}
	t.val[p] = v
	for j := (p + len(t.val)) >> 1; j >= 1; j >>= 1 {
		t.play(j)
	}
}

// min returns the smallest value and its position.
func (t *minTree) min() (uint64, int) {
	p := int(t.win[1])
	return t.val[p], p
}

// minWithout returns the smallest value at any position but p: the
// minimum of the sibling subtrees along p's path to the root.
func (t *minTree) minWithout(p int) uint64 {
	m := infTime
	for j := p + len(t.val); j > 1; j >>= 1 {
		m = min(m, t.val[t.pos(j^1)])
	}
	return m
}

// satAdd adds with saturation at infTime.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return infTime
}
