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
// peer's next-send time, its entry:
//
//   - A running node p's clock only moves forward, and a send stamps its
//     departure at or after the sender's current clock, so its entry is
//     its clock, and any future message from p arrives no earlier than
//     clock(p) + lookahead(p→r), where lookahead is the minimum virtual
//     wire latency from p to r — topology-aware: a rack-local peer gives
//     a tighter horizon than a cross-pod one. The lookahead deliberately
//     EXCLUDES the sender-side software cost: a message already charged
//     but not yet enqueued (in flight inside Send) has its software cost
//     spent, so only the wire latency still separates the sender's
//     visible clock from the arrival stamp.
//
//   - A node blocked in a queued receive cannot send until it consumes a
//     message, and consuming advances its clock to at least the consumed
//     arrival, so its entry is the later of its clock and its earliest
//     queued arrival — infinite while its queue is empty. This is what
//     replaces CMB null messages: an idle worker that finished early does
//     not block the cluster's horizon, because nothing it could do comes
//     before whatever would have to wake it.
//
//   - Nodes blocked in virtual-time synchronization (barriers, locks)
//     are treated as running: their frozen clock is a sound — merely
//     loose — bound, since every primitive reconciles a waiter's clock
//     past the release time before it can issue another send.
//
//   - A fail-stopped node no longer bounds anyone: the fault plan eats
//     everything it sends, so MarkDown makes its entry infinite; so does
//     a retired node's (SetRetired).
//
// The bound. Node self may take an arrival at T once T is at most
//
//	min over p ≠ self of entry(p) + la[p][self]
//
// and this is the exact CMB bound, with no relaxation step, because
// NewEngine requires the lookahead to obey the triangle inequality
// la[p][r] <= la[p][q] + la[q][r] (every simnet topology does: base
// latency plus a hop penalty on a rack ⊂ pod hierarchy). A blocked node
// q that p's send wakes can itself send no earlier than entry(p) +
// la[p][q], so it reaches self no earlier than entry(p) + la[p][q] +
// la[q][self] >= entry(p) + la[p][self]: p's direct term already covers
// every chain through q. Self is excluded: its own next send happens only
// after this delivery, and anything it sets off reaches it later than T.
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
// it consumes (GateRun credits it) — plus its running, receive-waiting,
// retired and down marks. Every entry stays a lower bound on the node's
// next send: clocks are monotone; a consumer's clock moves to at least
// the arrival GateRun credited; and a message enqueued but not yet
// published is covered by its sender's entry, because the sender is
// still running in the table (it publishes its receiver's queue minimum
// before it can itself become receive-waiting) and the message arrives
// no earlier than the sender's published clock plus the lookahead.
// (Publishing a peer's clock therefore reads every queue minimum after
// it; the one window no order closes, a stolen charge landing on a
// sender between its departure stamp and its enqueue, is shared with the
// live evaluation.) Between runs a bound only rises, except that a
// node's own send may lower its own: once the message reaches its
// receiver's entry (at the Kick, at a tick's republish, or when the
// receiver consumes it first), the sender's entry, which never bounded
// the sender itself, stops covering it. Re-admitting a node at run start
// restarts its entry from its live clock, which may lower everyone's.
// For a uniform lookahead (every flat topology) one tournament tree over
// the entries gives a bound: its minimum in O(1), or the minimum without
// self in O(log n) when self holds it; other matrices fold the n
// entries. Horizon folds the live state the same way.
//
// Wake slots. Each gated receiver parks on its own slot, recording the
// earliest arrival it could take: its candidate, lowered when a send
// publishes an earlier queue minimum. A send, a receive-wait, a consumed
// arrival that raised its consumer's entry, a down or retire mark, a
// poller's live refresh, or the liveness tick wakes only the parked
// receivers whose recorded arrival the table now proves safe; only
// WakeAll (Network.Close) wakes everyone. Progress made without a gate
// event (a bare clock advance, a barrier release, a stolen handler
// charge) is not published until the tick, which republishes the live
// entries at gateTick, so liveness needs no hook on the simulator's
// hottest paths. Host-time wake-up latency never affects results: safety
// is a fact about the future sends, so once a delivery is safe it stays
// safe, and the chosen message is a pure function of virtual state.

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
	// laMax is the largest off-diagonal lookahead. laUniform records that
	// every off-diagonal entry equals it — true for any flat topology —
	// which makes a bound one tree query (see boundLocked).
	laMax     Duration
	laUniform bool

	recvWait []bool // node is blocked in a queued receive
	down     []bool // node is fail-stopped; no longer bounds horizons
	retired  []bool // node's program returned; it will never send again

	// The published table (see the package comment): pclk[p] and
	// pqmin[p] are node p's clock and earliest queued arrival (infTime
	// when empty) as of its last gate event. pclk only rises, except
	// when a new run re-admits the node. entry holds each node's entry
	// computed from them (see restateLocked).
	pclk  []uint64
	pqmin []uint64
	entry minTree

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
}

// NewEngine creates an engine over the given clocks with the given
// lookahead matrix. la[p][r] must lower-bound the wire latency of any
// future message p→r and obey the triangle inequality over distinct
// nodes (see the package comment); la[p][p] is ignored.
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
		recvWait: make([]bool, n),
		down:     make([]bool, n),
		retired:  make([]bool, n),
		pclk:     make([]uint64, n),
		pqmin:    make([]uint64, n),
		entry:    newMinTree(n),
		wake:     make([]sync.Cond, n),
		want:     make([]uint64, n),
		parked:   make([]bool, n),
		minWant:  infTime,
	}
	for i := range e.wake {
		e.wake[i].L = &e.mu
		e.pqmin[i] = infTime
		e.restateLocked(i)
	}
	laMin := Duration(infTime)
	for p, row := range la {
		for r, d := range row {
			if p != r {
				laMin, e.laMax = min(laMin, d), max(e.laMax, d)
			}
		}
	}
	e.laUniform = laMin >= e.laMax
	if !e.laUniform {
		checkTriangle(la)
	}
	return e
}

// checkTriangle panics on the first triple of distinct nodes p, q, r
// with la[p][r] > la[p][q] + la[q][r]: under such a matrix a woken node
// could relay p's influence to r faster than p itself, and the one-pass
// bound would admit deliveries too early. O(n³); a uniform matrix obeys
// the inequality trivially and skips it.
func checkTriangle(la [][]Duration) {
	for p, fromP := range la {
		for q, pq := range fromP {
			if q == p {
				continue
			}
			for r, qr := range la[q] {
				if r != p && r != q && fromP[r] > pq+qr {
					panic(fmt.Sprintf("vclock: lookahead %d→%d is %d, above %d→%d→%d at %d: the gate's bound needs the triangle inequality",
						p, r, fromP[r], p, q, r, pq+qr))
				}
			}
		}
	}
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
// It tests the published table. A receive-waiting self stops there: it
// parks next, and the first gate event or tick that lets the table prove
// t safe wakes it, so a blocking receive reads no other node's clock or
// queue. A poller (TryRecv), which has no wake slot, gets one live
// republish (waking whom it proves safe) and a retest. Requires
// GateBegin. The caller may hold self's queue lock; the engine probes
// only OTHER nodes' queues.
func (e *Engine) GateSafe(self int, t Time) bool {
	if e.boundLocked(self) >= uint64(t) {
		return true
	}
	if e.recvWait[self] || !e.publishLiveLocked() {
		return false
	}
	e.wakeSafeLocked()
	return e.boundLocked(self) >= uint64(t)
}

// GateRecvWait marks self as blocked in a queued receive and publishes
// its clock and queue minimum: it will not send until it consumes a
// message, which peers' horizon bounds may exploit. A blocked node's
// entry is never below its running one, so the transition can only
// unblock peers — hence the wake pass. Requires GateBegin.
func (e *Engine) GateRecvWait(self int) {
	e.recvWait[self] = true
	e.publishLocked(self)
	e.wakeSafeLocked()
}

// GateRun clears the receive-wait mark of self, which consumes a message
// with arrival at (0 when it takes nothing). Requires GateBegin. Must be
// called before the delivery's clock charges are applied, so the running
// state (a plain clock lower bound) is in force whenever the node's
// clock can move. The node's published clock is credited with the
// arrival: its clock then moves to at least at, so the entry stays a
// lower bound on its next send. When the credit raised the entry (a
// filtered receive took a later message than its queue's earliest),
// peers' bounds rose with it, hence the wake pass.
func (e *Engine) GateRun(self int, at Time) {
	was := e.entry.val[self]
	e.pclk[self] = max(e.pclk[self], uint64(at))
	e.recvWait[self] = false
	e.restateLocked(self)
	if e.entry.val[self] > was {
		e.wakeSafeLocked()
	}
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

// Horizon returns node self's delivery bound evaluated on live state
// (for monitoring and tests): the table's fold over every live running
// node's clock, then over every receive-waiting node's later of clock
// and queue minimum — the minima read after the running clocks, as
// publishLiveLocked reads them.
func (e *Engine) Horizon(self int) Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := infTime
	for _, waiting := range []bool{false, true} {
		for p, c := range e.clocks {
			if p == self || e.recvWait[p] != waiting || e.down[p] || e.retired[p] {
				continue
			}
			v := uint64(c.Now())
			if waiting {
				v = max(v, e.queueMinLocked(p))
			}
			b = min(b, satAdd(v, uint64(e.la[p][self])))
		}
	}
	return Time(b)
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
}

// wakeSafeLocked wakes every parked receiver whose recorded arrival the
// table now proves safe. Requires mu.
func (e *Engine) wakeSafeLocked() {
	if e.waiters == 0 {
		return
	}
	if m, a := e.entry.min(); satAdd(m, uint64(e.laMax)) < e.minWant {
		// Every receiver but the smallest entry's holder has bound at
		// most m+laMax, below every recorded arrival: only that holder
		// could wake.
		if !e.parked[a] || e.boundLocked(a) < e.want[a] {
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
		if e.boundLocked(r) >= e.want[r] {
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

// publishLocked publishes node p's live clock and queue minimum, for p's
// own gate events. Requires mu.
func (e *Engine) publishLocked(p int) {
	e.pclk[p] = max(e.pclk[p], uint64(e.clocks[p].Now()))
	e.pqmin[p] = e.queueMinLocked(p)
	e.restateLocked(p)
}

// restateLocked restates node p's entry from the table: infinite when it
// no longer sends, the later of its published clock and queue minimum
// when receive-waiting, its published clock otherwise. O(log n).
// Requires mu.
func (e *Engine) restateLocked(p int) {
	v := e.pclk[p]
	switch {
	case e.down[p] || e.retired[p]:
		v = infTime
	case e.recvWait[p]:
		v = max(v, e.pqmin[p])
	}
	e.entry.set(p, v)
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

// boundLocked is node self's delivery bound from the published table:
// the smallest entry of any other node plus its lookahead to self. One
// tree query for a uniform lookahead, one pass over the entries
// otherwise. Requires mu.
func (e *Engine) boundLocked(self int) uint64 {
	if e.laUniform {
		m, a := e.entry.min()
		if a == self {
			m = e.entry.minWithout(self)
		}
		return satAdd(m, uint64(e.laMax))
	}
	b := infTime
	for p, v := range e.entry.val[:len(e.clocks)] {
		if p != self {
			b = min(b, satAdd(v, uint64(e.la[p][self])))
		}
	}
	return b
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
