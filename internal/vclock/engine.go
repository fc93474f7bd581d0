package vclock

// Conservative parallel intra-cell execution (ROADMAP item 2, second
// half): the lookahead engine that lets one simulation's node goroutines
// run on real cores without ever observing a message out of virtual
// order.
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
// Liveness does not depend on instrumenting every clock advance (which
// would put a hook on the hottest paths in the simulator): senders kick
// the engine when they enqueue, and a low-frequency ticker re-evaluates
// blocked horizons so progress made through non-kicking paths (barrier
// releases, stolen handler charges) is observed promptly. Host-time
// wake-up latency never affects results — the safety predicate is
// monotone in the clocks, so once a delivery becomes safe it stays safe
// and the chosen message is a pure function of virtual state.

import (
	"fmt"
	"sync"
	"time"
)

// gateTick is the host-time period at which blocked horizon waiters
// re-evaluate their bounds when no sender kick arrives. Purely a
// liveness knob: results never depend on it.
const gateTick = 100 * time.Microsecond

// infTime is the "never" activation bound.
const infTime = ^uint64(0)

// Engine tracks one simulation's node clocks and computes conservative
// delivery horizons. One Engine gates one message fabric; the network
// drives it through the Gate* session API (see internal/simnet).
type Engine struct {
	mu   sync.Mutex
	cond *sync.Cond

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
	// Dijkstra to a closed form (see allBoundsUniformLocked).
	laUniform bool
	la0       Duration

	recvWait []bool // node is blocked in a queued receive
	down     []bool // node is fail-stopped; no longer bounds horizons
	retired  []bool // node's program returned; it will never send again

	waiters int
	ticking bool

	// epoch versions the loosening side of the engine state: sends,
	// receive-wait transitions, down/retired marks, and ticker passes
	// (which stand in for untracked clock progress) bump it. cacheVal is
	// the shared inclusive activation vector (no self-exclusion, see
	// GateSafe) computed at cacheEpoch. Every cached entry is a sound
	// lower bound on that node's next send FOREVER, not just for its
	// epoch: clocks are monotone, a receive-waiting node consumes a
	// message at or after the activation that the vector advertised
	// before it can send, and down marks are permanent. A stale vector is
	// therefore only ever too tight — GateSafe may pass on it without
	// recomputing, and recomputes lazily only when a stale test fails.
	// The one transition that TIGHTENS state — un-retiring a node when a
	// new run starts — zeroes the vector outright (zero lower-bounds
	// everything) instead of relying on the epoch.
	epoch      uint64
	cacheEpoch uint64
	cacheVal   []uint64

	// Dijkstra scratch, reused under mu so horizon evaluation allocates
	// nothing in steady state. snap holds one coherent clock snapshot per
	// pass: an atomic clock read per relaxation edge would dominate the
	// pass, and an older value is merely a looser sound bound.
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
		epoch:    1, // cacheEpoch 0 => first GateSafe computes the vector
		cacheVal: make([]uint64, n),
		val:      make([]uint64, n),
		done:     make([]bool, n),
		snap:     make([]uint64, n),
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
	e.cond = sync.NewCond(&e.mu)
	return e
}

// SetQueueMin installs the pending-queue probe (see the field). Must be
// called before any gated traffic.
func (e *Engine) SetQueueMin(fn func(node int) (Time, bool)) {
	e.mu.Lock()
	e.queueMin = fn
	e.mu.Unlock()
}

// GateBegin enters a gated delivery session: it acquires the engine
// lock, under which the caller may scan its queue, evaluate GateSafe,
// and sleep with GateWait. Lock ordering is engine → queue: queue locks
// are only ever taken with the engine lock already held (or with no
// engine involvement at all, on the sender's enqueue path).
func (e *Engine) GateBegin() { e.mu.Lock() }

// GateEnd leaves the session.
func (e *Engine) GateEnd() { e.mu.Unlock() }

// GateSafe reports whether a message with virtual arrival t may be
// delivered to node self: no peer can still produce an earlier arrival.
// Requires GateBegin. The caller may hold self's queue lock; the
// engine probes only OTHER nodes' queues.
func (e *Engine) GateSafe(self int, t Time) bool {
	// Fast path: every peer's live clock already guarantees t.
	safe := true
	for p := range e.clocks {
		if p == self || e.down[p] || e.retired[p] {
			continue
		}
		if satAdd(uint64(e.clocks[p].Now()), uint64(e.la[p][self])) < uint64(t) {
			safe = false
			break
		}
	}
	if safe {
		return true
	}
	// Shared bound: one INCLUSIVE activation vector (no self-exclusion)
	// serves every receiver, so a broadcast that wakes all waiters costs
	// at most one Dijkstra pass total instead of one per waiter — the
	// difference between O(n^2) and O(n^3) work per send at cluster
	// scale. Inclusion only lowers entries (an extra relaxation source
	// never raises a shortest activation), so val_incl <= val_excl
	// pointwise and a passing inclusive test is sound. The cached vector
	// is tried even when stale — stale entries are only too tight (see
	// the field comment) — and recomputed lazily only when the stale test
	// fails with loosening epochs unseen.
	if e.cacheBoundLocked(self) >= uint64(t) {
		return true
	}
	if e.cacheEpoch != e.epoch {
		e.allBoundsLocked()
		e.cacheEpoch = e.epoch
		if e.cacheBoundLocked(self) >= uint64(t) {
			return true
		}
	}
	// Exactness shortcut: when self is receive-waiting with earliest
	// queued arrival >= t and every lookahead is strictly positive, an
	// inclusive failure is also an exact failure, so the per-self
	// Dijkstra below can be skipped. Proof sketch: order the relaxations
	// that produced the failing witness val_incl[p*] + la[p*][self] < t.
	// If the witness chain passes through self, self was activated either
	// by its own queue (>= t, so every downstream value is >= t + la > t
	// — it cannot be the failing witness) or by some peer q with
	// val[q] + la[q][self] < its activation; but q also bounds self
	// DIRECTLY by val[q] + la[q][self], a self-free witness that is no
	// larger (relaxation floors are monotone: lowering a value at any
	// stage never raises a later one). Induction yields a self-free
	// failing witness, which evaluates identically in the exclusive
	// graph — so boundLocked(self) < t too. (Clock progress since the
	// vector's epoch can make this verdict conservatively early; the
	// ticker's next epoch bump refreshes it, and results never depend on
	// wake-up timing.)
	if e.laPos && e.recvWait[self] && e.queueMin != nil {
		if qm, ok := e.queueMin(self); ok && uint64(qm) >= uint64(t) {
			return false
		}
	}
	return e.boundLocked(self) >= uint64(t)
}

// GateRecvWait marks self as blocked in a queued receive: it will not
// send until it consumes a message, which peers' horizon bounds may
// exploit. A blocked node's bound is never tighter than its running
// bound, so the transition can only unblock peers — hence the
// broadcast. Requires GateBegin.
func (e *Engine) GateRecvWait(self int) {
	e.recvWait[self] = true
	e.epoch++
	e.cond.Broadcast()
}

// GateRun clears the receive-wait mark. Requires GateBegin. Must be
// called before the delivery's clock charges are applied, so the
// running state (a plain clock lower bound) is in force whenever the
// node's clock can move. It does NOT bump the epoch: the node consumes
// a message whose arrival is at or past the activation that the cached
// vector advertised for it, and its clock then moves to at least that
// arrival — so the stale cached entry stays a sound lower bound on its
// next send.
func (e *Engine) GateRun(self int) { e.recvWait[self] = false }

// GateWait blocks until a kick or the liveness ticker fires, releasing
// the engine lock while asleep. Requires GateBegin.
func (e *Engine) GateWait() {
	e.waiters++
	if !e.ticking {
		e.ticking = true
		go e.tickLoop()
	}
	e.cond.Wait()
	e.waiters--
}

// Kick wakes all gated waiters to re-evaluate their horizons. Senders
// call it after enqueuing; it must never be called while holding a
// queue lock. The epoch bumps even when nobody waits, so the next
// evaluation sees the sender's clock progress.
func (e *Engine) Kick() {
	e.mu.Lock()
	e.epoch++
	if e.waiters > 0 {
		e.cond.Broadcast()
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
	e.epoch++
	e.cond.Broadcast()
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
	e.epoch++
	if v {
		e.cond.Broadcast()
	} else {
		// Un-retiring (a new run starting) is the one transition that
		// TIGHTENS state, and GateSafe consults the cached vector even
		// when stale — so the epoch bump is not enough: zero the vector
		// outright. Zero lower-bounds every future send, so the wiped
		// cache is universally sound until the next recompute.
		for i := range e.cacheVal {
			e.cacheVal[i] = 0
		}
	}
	e.mu.Unlock()
}

// Horizon returns the current conservative bound on the earliest
// arrival any peer could still produce at node self (for monitoring and
// tests; infTime-capped saturating arithmetic).
func (e *Engine) Horizon(self int) Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Time(e.boundLocked(self))
}

// tickLoop is the liveness ticker: while any waiter is blocked it
// re-broadcasts at gateTick so horizon progress made without a sender
// kick (barrier releases, stolen charges) is observed. Exits as soon as
// nobody waits; restarted lazily by the next GateWait.
func (e *Engine) tickLoop() {
	for {
		time.Sleep(gateTick)
		e.mu.Lock()
		if e.waiters == 0 {
			e.ticking = false
			e.mu.Unlock()
			return
		}
		e.epoch++ // clocks may have moved through non-kicking paths
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// boundLocked computes a lower bound on the earliest virtual arrival of
// any not-yet-queued message at node self. Requires mu.
//
// val[p] is a lower bound on node p's next-send time: a running node's
// clock (final immediately), or, for a node blocked in a queued
// receive, its activation time — the earliest arrival it could consume,
// resolved by a Dijkstra pass because activations feed each other
// through non-negative lookahead edges. self never contributes: its own
// next send happens only after this delivery completes, and anything it
// influences transitively arrives strictly later than the candidate.
func (e *Engine) boundLocked(self int) uint64 {
	n := len(e.clocks)
	val, done := e.val, e.done
	e.snapClocksLocked()
	for p := 0; p < n; p++ {
		if p == self || e.down[p] || e.retired[p] {
			val[p], done[p] = infTime, true
			continue
		}
		c := e.snap[p]
		if !e.recvWait[p] {
			val[p], done[p] = c, true
			continue
		}
		// Blocked receiver: tentative activation from its own queue;
		// peer contributions are relaxed in below.
		act := infTime
		if e.queueMin != nil {
			if t, ok := e.queueMin(p); ok {
				act = uint64(t)
			}
		}
		val[p], done[p] = maxU64(c, act), false
	}
	// Relax finalized senders into tentative receivers, then finalize in
	// increasing activation order (Dijkstra; edges la >= 0).
	for p := 0; p < n; p++ {
		if !done[p] || val[p] == infTime {
			continue
		}
		e.relaxLocked(val, done, p)
	}
	for {
		best, bestV := -1, infTime
		for p := 0; p < n; p++ {
			if !done[p] && val[p] < bestV {
				best, bestV = p, val[p]
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		e.relaxLocked(val, done, best)
	}
	bound := infTime
	for p := 0; p < n; p++ {
		if p == self || e.down[p] || e.retired[p] {
			continue
		}
		if b := satAdd(val[p], uint64(e.la[p][self])); b < bound {
			bound = b
		}
	}
	return bound
}

// cacheBoundLocked folds the cached inclusive vector into a delivery
// bound for node self. Requires mu.
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

// allBoundsLocked computes the shared inclusive activation vector into
// cacheVal: the same Dijkstra pass as boundLocked but with no excluded
// node, so one result serves every receiver for the current epoch.
// Requires mu.
func (e *Engine) allBoundsLocked() {
	if e.laUniform {
		e.allBoundsUniformLocked()
		return
	}
	e.allBoundsGenericLocked()
}

// allBoundsUniformLocked is the closed form of the inclusive activation
// vector for a uniform lookahead matrix (every off-diagonal entry la0 —
// any flat topology). On a complete graph with one edge weight, a chain
// of two or more hops costs at least 2*la0 past its source, so the only
// relaxation that can ever win is one hop from the globally minimal
// activation m1: val[r] = min(init[r], max(clock_r, m1+la0)). (The m1
// holder itself cannot be lowered — every source is >= m1.) That turns
// the O(n^2) Dijkstra into two O(n) sweeps, which is what keeps the
// recompute affordable at the epoch rates a busy messaging phase
// generates. Requires mu.
func (e *Engine) allBoundsUniformLocked() {
	n := len(e.clocks)
	val := e.cacheVal
	e.snapClocksLocked()
	m1 := infTime
	for p := 0; p < n; p++ {
		if e.down[p] || e.retired[p] {
			val[p] = infTime
			continue
		}
		c := e.snap[p]
		if !e.recvWait[p] {
			val[p] = c
		} else {
			act := infTime
			if e.queueMin != nil {
				if t, ok := e.queueMin(p); ok {
					act = uint64(t)
				}
			}
			val[p] = maxU64(c, act)
		}
		if val[p] < m1 {
			m1 = val[p]
		}
	}
	relaxed := satAdd(m1, uint64(e.la0))
	for p := 0; p < n; p++ {
		if e.down[p] || e.retired[p] || !e.recvWait[p] {
			continue
		}
		if r := maxU64(e.snap[p], relaxed); r < val[p] {
			val[p] = r
		}
	}
}

// allBoundsGenericLocked is the exact Dijkstra pass for an arbitrary
// lookahead matrix. Requires mu.
func (e *Engine) allBoundsGenericLocked() {
	n := len(e.clocks)
	val, done := e.cacheVal, e.done
	e.snapClocksLocked()
	for p := 0; p < n; p++ {
		if e.down[p] || e.retired[p] {
			val[p], done[p] = infTime, true
			continue
		}
		c := e.snap[p]
		if !e.recvWait[p] {
			val[p], done[p] = c, true
			continue
		}
		act := infTime
		if e.queueMin != nil {
			if t, ok := e.queueMin(p); ok {
				act = uint64(t)
			}
		}
		val[p], done[p] = maxU64(c, act), false
	}
	for p := 0; p < n; p++ {
		if !done[p] || val[p] == infTime {
			continue
		}
		e.relaxLocked(val, done, p)
	}
	for {
		best, bestV := -1, infTime
		for p := 0; p < n; p++ {
			if !done[p] && val[p] < bestV {
				best, bestV = p, val[p]
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		e.relaxLocked(val, done, best)
	}
}

// relaxLocked lowers tentative activations reachable from the finalized
// node p: a send leaving p at val[p] can wake receiver q no earlier
// than val[p] + la[p][q], floored at q's own clock (from the pass's
// snapshot — an older clock is merely a looser sound floor).
func (e *Engine) relaxLocked(val []uint64, done []bool, p int) {
	for q := range e.clocks {
		if done[q] {
			continue
		}
		cand := maxU64(e.snap[q], satAdd(val[p], uint64(e.la[p][q])))
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

// satAdd adds with saturation at infTime.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return infTime
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
