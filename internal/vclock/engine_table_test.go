package vclock

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// tableModel drives an engine through the gated network's protocol: a
// send charges the sender, enqueues, and only later kicks (the window in
// which a message is queued but unpublished); a receiver registers as
// receive-waiting, parks on its wake slot with its candidate, and once
// woken consumes its earliest message if GateSafe allows it, GateRun
// before its clock moves to the arrival; a running node may poll as
// TryRecv does. Some messages are of a kind receive-waiting nodes skip, as
// a filtered receive does, so a receiver's candidate may sit behind an
// earlier queued arrival; polls take those too. Parking is emulated
// without goroutines: the model fills the slot as GateWait would and sees
// the engine empty it.
type tableModel struct {
	e      *Engine
	clocks []*Clock
	la     [][]Duration
	queue  [][]queued // queued messages per node
	kick   []int      // the node a sender has enqueued at but not kicked, or -1
	parked []bool     // the model's view: parked until the engine empties the slot
	want   []uint64   // a parked receiver's recorded arrival after the last event
	stuck  int        // a receiver refused an exactly safe candidate after a tick, or -1
	kicked int        // the node whose Kick the last event was, or -1
}

// queued is one message in the model: its arrival, and whether a
// receive-waiting node's filter skips it.
type queued struct {
	at   Time
	skip bool
}

func newTableModel(la [][]Duration) *tableModel {
	n := len(la)
	m := &tableModel{clocks: make([]*Clock, n), la: la, queue: make([][]queued, n), kick: make([]int, n), parked: make([]bool, n), want: make([]uint64, n), stuck: -1, kicked: -1}
	for i := range m.clocks {
		m.clocks[i] = &Clock{}
		m.kick[i] = -1
	}
	m.e = NewEngine(m.clocks, la)
	m.e.SetQueueMin(func(node int) (Time, bool) {
		at, i := m.candidate(node, false)
		return at, i >= 0
	})
	return m
}

// idle reports whether node p is running, live and not inside a send.
func (m *tableModel) idle(p int) bool {
	e := m.e
	return !e.recvWait[p] && !e.down[p] && !e.retired[p] && m.kick[p] < 0
}

// candidate is the earliest arrival queued at p, or Never; filtered
// passes over the messages a receive-waiting node skips.
func (m *tableModel) candidate(p int, filtered bool) (at Time, idx int) {
	at, idx = Never, -1
	for i, q := range m.queue[p] {
		if q.at < at && !(filtered && q.skip) {
			at, idx = q.at, i
		}
	}
	return at, idx
}

// unpark returns the receivers the engine woke to the running loop, as
// GateWait's return does, and reports one woken before its arrival was
// safe: the recorded one, or the earliest queued one, which a send may
// just have brought (filtered or not).
// Requires mu.
func (m *tableModel) unpark() (early int) {
	early = -1
	for r, p := range m.parked {
		if p && !m.e.parked[r] {
			m.parked[r] = false
			m.e.waiters--
			if at, _ := m.candidate(r, false); m.e.exactLocked(r, true) < min(m.want[r], uint64(at)) {
				early = r
			}
		}
		m.want[r] = m.e.want[r]
	}
	return early
}

// step applies one random protocol event and reports whether it re-admitted
// a node, which may lower every bound; a Kick, which may lower the
// sender's own, is left in m.kicked.
func (m *tableModel) step(rng *rand.Rand) (readmit bool) {
	e, n := m.e, len(m.clocks)
	p := rng.Intn(n)
	m.kicked = -1
	switch rng.Intn(11) {
	case 0, 1: // bare clock progress, e.g. compute or a barrier release
		if !e.down[p] {
			m.clocks[p].Advance(Duration(rng.Intn(3000)))
		}
	case 2: // a send enqueues...
		if q := rng.Intn(n); m.idle(p) && q != p {
			m.clocks[p].AdvanceCat(CatNetwork, 100)
			at := m.clocks[p].Now() + Time(m.la[p][q]) + Time(rng.Intn(500))
			m.queue[q] = append(m.queue[q], queued{at, rng.Intn(2) == 0})
			m.kick[p] = q
		}
	case 3: // ...and publishes
		if q := m.kick[p]; q >= 0 {
			e.Kick(p, q)
			m.kick[p], m.kicked = -1, p
		}
	case 4:
		if m.idle(p) {
			e.GateBegin()
			e.GateRecvWait(p)
			e.GateEnd()
		}
	case 5, 6, 10: // a woken receiver tries its candidate, or an idle node polls
		waiting := e.recvWait[p]
		if waiting && m.parked[p] || !waiting && !m.idle(p) {
			break
		}
		at, i := m.candidate(p, waiting)
		if i < 0 && !waiting {
			// An empty poll still probes the horizon, as a poller.
			at = m.clocks[p].Now() + Time(rng.Intn(5000))
		}
		e.GateBegin()
		ok := i >= 0 || !waiting
		ok = ok && e.GateSafe(p, at)
		if !ok && waiting && i >= 0 && e.exactLocked(p, true) >= uint64(at) {
			// Exactly safe: once a tick has republished the table, the
			// receiver it wakes must get through, or it would be woken
			// and re-parked for ever.
			e.tickLocked()
			if ok = e.GateSafe(p, at); !ok {
				m.stuck = p
			}
		}
		switch {
		case ok && i >= 0:
			if waiting {
				e.GateRun(p, at)
			}
			m.queue[p] = slices.Delete(m.queue[p], i, i+1)
		case waiting:
			// GateWait without blocking.
			e.want[p], e.parked[p], m.parked[p] = uint64(at), true, true
			e.minWant = min(e.minWant, uint64(at))
			e.waiters++
		}
		e.GateEnd()
		if ok && i >= 0 {
			// Some receives cost nothing past the arrival: the table may
			// not credit the consumer with more than the arrival itself.
			m.clocks[p].AdvanceToCat(CatNetwork, at)
			m.clocks[p].AdvanceCat(CatNetwork, Duration(200*rng.Intn(2)))
		}
	case 7: // the liveness tick
		e.GateBegin()
		e.tickLocked()
		e.GateEnd()
	case 8:
		switch {
		case e.retired[p] && !m.parked[p]:
			e.SetRetired(p, false)
			return true
		case m.idle(p):
			e.SetRetired(p, true)
		}
	case 9:
		if rng.Intn(8) == 0 && m.kick[p] < 0 {
			e.MarkDown(p)
		}
	}
	return false
}

// TestEngineTableBoundsStayBelowHorizon runs seeded random protocol
// sequences on a uniform and a rack lookahead matrix. After every event,
// each receiver's bound from the published table must equal the
// activation Dijkstra over the same table and be at most the exact bound
// on live state (the table only ever lags) — except for a node between
// its enqueue and its Kick, which asks about no receive and whose own
// message its entry no longer covers for itself; a bound must not drop
// except at its node's own send or when a node is re-admitted; no parked
// receiver may be left whose recorded arrival the table proves safe
// (every event that raises the table wakes it at once), and none may be
// woken before its arrival is safe; and a receiver whose candidate is
// exactly safe must get through once a tick has republished the table,
// also when its candidate sits behind a message it skips.
func TestEngineTableBoundsStayBelowHorizon(t *testing.T) {
	uniform := func(n int) [][]Duration { return uniformLA(n, 1000) }
	for name, matrix := range map[string]func(int) [][]Duration{"uniform": uniform, "rack": rackLA} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 100; trial++ {
				m := newTableModel(matrix(2 + rng.Intn(8)))
				e, n := m.e, len(m.clocks)
				last := make([]uint64, n)
				for ev := 0; ev < 300; ev++ {
					readmit := m.step(rng)
					if m.stuck >= 0 {
						t.Fatalf("trial %d event %d: node %d refused an exactly safe candidate after a tick", trial, ev, m.stuck)
					}
					e.mu.Lock()
					for r := 0; r < n; r++ {
						tb, table, live := e.boundLocked(r), e.exactLocked(r, false), e.exactLocked(r, true)
						sending := m.kick[r] >= 0
						if e.parked[r] && e.want[r] != infTime && tb >= e.want[r] {
							e.mu.Unlock()
							t.Fatalf("trial %d event %d: node %d is parked for %d with its table bound at %d", trial, ev, r, e.want[r], tb)
						}
						if tb != table {
							e.mu.Unlock()
							t.Fatalf("trial %d event %d: node %d's table bound %d, Dijkstra over the table %d", trial, ev, r, tb, table)
						}
						if tb > live && !sending {
							e.mu.Unlock()
							t.Fatalf("trial %d event %d: node %d's table bound %d exceeds the exact horizon %d", trial, ev, r, tb, live)
						}
						if tb < last[r] && !readmit && !sending && m.kicked != r {
							e.mu.Unlock()
							t.Fatalf("trial %d event %d: node %d's table bound fell from %d to %d", trial, ev, r, last[r], tb)
						}
						last[r] = tb
					}
					if r := m.unpark(); r >= 0 {
						e.mu.Unlock()
						t.Fatalf("trial %d event %d: node %d woken before its arrival was safe", trial, ev, r)
					}
					e.mu.Unlock()
				}
			}
		})
	}
}

// parkUntilSafe is a gated receiver: node self waits, parked on its wake
// slot, until an arrival at t is safe, then takes it.
func parkUntilSafe(e *Engine, self int, t Time, done chan<- struct{}) {
	e.GateBegin()
	e.GateRecvWait(self)
	for !e.GateSafe(self, t) {
		e.GateWait(self, t)
	}
	e.GateRun(self, t)
	e.GateEnd()
	close(done)
}

// waitParked polls until n receivers are parked.
func waitParked(t *testing.T, e *Engine, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; {
		e.GateBegin()
		w := e.waiters
		e.GateEnd()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d receivers parked, want %d", w, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineTickDeliversNonKickingProgress parks a receiver held back
// only by a node that then advances without any gate event — a bare
// clock advance, or a barrier release — and expects the liveness tick to
// publish the progress and wake it.
func TestEngineTickDeliversNonKickingProgress(t *testing.T) {
	for name, advance := range map[string]func(clocks []*Clock){
		"bare advance": func(clocks []*Clock) { clocks[0].Advance(50_000) },
		"barrier release": func(clocks []*Clock) {
			// Node 2 is far ahead; the release moves node 0 up to it.
			b := NewVBarrier(2)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); b.Arrive(clocks[2], 0, 0) }()
			b.Arrive(clocks[0], 0, 0)
			wg.Wait()
		},
	} {
		t.Run(name, func(t *testing.T) {
			e, clocks := engineN(3, 1000)
			clocks[2].Advance(50_000)
			done := make(chan struct{})
			go parkUntilSafe(e, 1, 20_000, done)
			waitParked(t, e, 1)
			select {
			case <-done:
				t.Fatal("delivered while node 0 could still send an earlier arrival")
			case <-time.After(5 * time.Millisecond):
			}
			advance(clocks)
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("the tick did not deliver after node 0's progress")
			}
		})
	}
}

// TestEngineEventWakesTheSmallestActivation parks the node that holds
// the smallest entry, with a candidate behind an earlier queued
// message it does not take, and expects the send that makes the
// candidate safe to wake it before Kick returns: the wake pass may skip
// everyone else, not that node.
func TestEngineEventWakesTheSmallestActivation(t *testing.T) {
	e, clocks := engineN(3, 1000)
	e.SetQueueMin(func(node int) (Time, bool) { return 100, node == 0 })
	e.SetRetired(2, true)
	clocks[1].Advance(200)
	done := make(chan struct{})
	go parkUntilSafe(e, 0, 5000, done)
	waitParked(t, e, 1)
	clocks[1].Advance(4300)
	e.Kick(1, 2)
	e.GateBegin()
	parked := e.parked[0]
	e.GateEnd()
	if parked {
		t.Fatal("the send that made node 0's candidate safe left it parked")
	}
	<-done
}

// TestEngineConsumedArrivalWakesPeers has a receiver take a message
// later than its queue's earliest (a filtered receive): GateRun's credit
// raises its entry, and the peer that entry held back must be woken
// before GateRun returns, not at the next tick.
func TestEngineConsumedArrivalWakesPeers(t *testing.T) {
	e, _ := engineN(3, 1000)
	e.SetQueueMin(func(node int) (Time, bool) { return Time(100 + 2900*node), node < 2 })
	e.SetRetired(2, true)
	e.GateBegin()
	e.GateRecvWait(0) // entry max(0, 100): node 1's bound is 1100
	e.GateEnd()
	done := make(chan struct{})
	go parkUntilSafe(e, 1, 3000, done)
	waitParked(t, e, 1)
	e.GateBegin()
	if !e.GateSafe(0, 3500) {
		e.GateEnd()
		t.Fatal("node 0's arrival at 3500 is below node 1's entry 3000 plus the lookahead")
	}
	e.GateRun(0, 3500)
	parked := e.parked[1]
	e.GateEnd()
	if parked {
		t.Fatal("the credit that made node 1's arrival safe left it parked")
	}
	<-done
}

// TestEngineGateRunCreditsTheArrival has a receiver consume a message
// its sender has enqueued but not kicked, so the receiver's published
// queue minimum (empty) lies above the arrival. GateRun must credit the
// arrival itself: once the sender kicks and moves on, the consumer's
// entry is all that bounds a third node.
func TestEngineGateRunCreditsTheArrival(t *testing.T) {
	e, clocks := engineN(3, 1000)
	var queued Time // node 1's queue: one message at queued, or none
	e.SetQueueMin(func(node int) (Time, bool) { return queued, node == 1 && queued != 0 })
	clocks[2].Advance(10_000)
	e.GateBegin()
	e.GateRecvWait(1)
	e.GateEnd()
	queued = 1000 // node 0 sends at clock 0; no Kick yet
	e.GateBegin()
	if !e.GateSafe(1, 1000) {
		e.GateEnd()
		t.Fatal("an arrival at node 0's clock plus the lookahead must be safe")
	}
	e.GateRun(1, 1000)
	queued = 0
	e.GateEnd()
	clocks[1].AdvanceToCat(CatNetwork, 1000)
	clocks[0].Advance(5000)
	e.Kick(0, 1)
	e.GateBegin()
	tb := e.boundLocked(2)
	e.GateEnd()
	if h := e.Horizon(2); tb != uint64(h) || h != 2000 {
		t.Fatalf("node 2's table bound %d, exact horizon %d, want both 2000 (node 1 may send from 1000)", tb, h)
	}
}

// TestEngineFilteredReceiverDelivers parks a receiver whose candidate
// sits behind an earlier queued message it does not take (another kind,
// or a tag its filter skips). Its own queue does not bound it: with both
// peers receive-waiting on empty queues, the table bound equals the exact
// horizon, Never, and the receiver delivers at once instead of being
// woken and re-parked for ever.
func TestEngineFilteredReceiverDelivers(t *testing.T) {
	e, clocks := engineN(3, 1000)
	e.SetQueueMin(func(node int) (Time, bool) { return 1100, node == 0 })
	clocks[1].Advance(4100)
	clocks[2].Advance(100)
	for _, p := range []int{1, 2} {
		e.GateBegin()
		e.GateRecvWait(p)
		e.GateEnd()
	}
	e.GateBegin()
	e.GateRecvWait(0)
	tb := e.boundLocked(0)
	e.GateEnd()
	if h := e.Horizon(0); h != Never || tb != uint64(h) {
		t.Fatalf("table bound %d, exact horizon %d, want both Never", tb, h)
	}
	done := make(chan struct{})
	go parkUntilSafe(e, 0, 5000, done)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a receiver whose candidate is exactly safe was not delivered")
	}
}

// TestEngineWakePathAllocatesNothing holds the wake path to zero
// allocations in steady state: a Kick with receivers parked and a
// receive-wait both republish, re-derive and run the wake pass.
func TestEngineWakePathAllocatesNothing(t *testing.T) {
	const n, far = 64, Time(1 << 50)
	e, _ := engineN(n, 1000)
	e.SetQueueMin(func(node int) (Time, bool) { return far, true })
	// Node 63 keeps running at clock 0, so no parked arrival ever clears.
	stop := false
	var wg sync.WaitGroup
	for r := 1; r < n-1; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e.GateBegin()
			e.GateRecvWait(r)
			for !stop {
				e.GateWait(r, far)
			}
			e.GateRun(r, 0)
			e.GateEnd()
		}(r)
	}
	waitParked(t, e, n-2)
	kick := func() { e.Kick(0, 1) }
	recvWait := func() {
		e.GateBegin()
		e.GateRecvWait(0)
		e.GateRun(0, 0)
		e.GateEnd()
	}
	kick()
	recvWait()
	if a := testing.AllocsPerRun(100, kick); a != 0 {
		t.Errorf("Kick with %d receivers parked allocates %v per run, want 0", n-2, a)
	}
	if a := testing.AllocsPerRun(100, recvWait); a != 0 {
		t.Errorf("GateRecvWait with %d receivers parked allocates %v per run, want 0", n-2, a)
	}
	e.GateBegin()
	stop = true
	e.GateEnd()
	e.WakeAll()
	wg.Wait()
}
