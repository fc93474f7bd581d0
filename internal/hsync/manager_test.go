package hsync

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// fakeEngine hands the manager scripted notice lists and remembers what
// it was told to invalidate.
type fakeEngine struct {
	mu      sync.Mutex
	flush   map[int][]memsim.PageID // next FlushInterval result per node
	dropped map[int]int             // pages passed to InvalidatePages per node
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{flush: map[int][]memsim.PageID{}, dropped: map[int]int{}}
}

func (f *fakeEngine) FlushInterval(node int) []memsim.PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.flush[node]
	delete(f.flush, node)
	return out
}

func (f *fakeEngine) InvalidatePages(node int, pages []memsim.PageID) {
	f.mu.Lock()
	f.dropped[node] += len(pages)
	f.mu.Unlock()
}

func (f *fakeEngine) dirty(node, pages int) {
	f.mu.Lock()
	f.flush[node] = make([]memsim.PageID, pages)
	f.mu.Unlock()
}

// rig is a manager over fresh clocks plus the bookkeeping to read one
// operation's effect off them.
type rig struct {
	t      *testing.T
	m      *Manager
	clocks []*vclock.Clock
	eng    *fakeEngine
	rec    *perfmon.Recorder
}

func newRig(t *testing.T, nodes int, wire Wire, topo simnet.Topology, withEngine bool, rendezvous ...*vclock.VBarrier) *rig {
	r := &rig{t: t, clocks: make([]*vclock.Clock, nodes), rec: perfmon.New(nodes, 64)}
	for i := range r.clocks {
		r.clocks[i] = &vclock.Clock{}
	}
	cfg := Config{Name: "test", Clocks: r.clocks, Wire: wire, Topology: topo, Rendezvous: rendezvous}
	if withEngine {
		r.eng = newFakeEngine()
		cfg.Engine = r.eng
	}
	r.m = NewManager(cfg)
	r.m.SetRecorder(r.rec)
	r.rec.Enable()
	return r
}

// effect is what one operation did: the caller's protocol and network
// charges, the protocol messages it counted, and who it interrupted.
type effect struct {
	protocol, network vclock.Duration
	msgs              uint64
	stolen            map[int]vclock.Duration
}

func (r *rig) observe(node int, op func()) effect {
	before := make([]vclock.Breakdown, len(r.clocks))
	for i, c := range r.clocks {
		before[i] = c.Breakdown()
	}
	msgs := r.m.SyncStats(node, platform.Stats{}).ProtocolMsgs
	op()
	after := r.clocks[node].Breakdown()
	e := effect{
		protocol: after.Protocol - before[node].Protocol,
		network:  after.Network - before[node].Network,
		msgs:     r.m.SyncStats(node, platform.Stats{}).ProtocolMsgs - msgs,
		stolen:   map[int]vclock.Duration{},
	}
	for i, c := range r.clocks {
		if d := c.Breakdown().Stolen - before[i].Stolen; d > 0 {
			e.stolen[i] = d
		}
	}
	return e
}

func (r *rig) expect(what string, got effect, protocol, network vclock.Duration, msgs uint64, stolen map[int]vclock.Duration) {
	r.t.Helper()
	ok := got.protocol == protocol && got.network == network && got.msgs == msgs && len(got.stolen) == len(stolen)
	for n, d := range stolen {
		ok = ok && got.stolen[n] == d
	}
	if !ok {
		r.t.Errorf("%s: protocol %d network %d msgs %d stolen %v; want protocol %d network %d msgs %d stolen %v",
			what, got.protocol, got.network, got.msgs, got.stolen, protocol, network, msgs, stolen)
	}
}

// ahead puts a node far enough ahead in virtual time that no lock or
// barrier wait is ever added to what it is charged.
func (r *rig) ahead(node int) { r.clocks[node].Advance(vclock.Duration(1e9) * vclock.Duration(node+1)) }

// barrier runs one barrier with every node on its own goroutine and
// returns the effect on the given node.
func (r *rig) barrier(node int) effect {
	var wg sync.WaitGroup
	return r.observe(node, func() {
		for i := range r.clocks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.m.Barrier(i)
			}(i)
		}
		wg.Wait()
	})
}

// The numbers below are the substrates' formulae evaluated by hand on
// machine.Default(): an Ethernet message of b bytes costs
// 25000+55000+80b+25000 within a rack (16 bytes: 106280, 16+8·3: 108200),
// plus 2 extra hops of 5000 and 4× the byte cost across racks (16 bytes:
// 120120); a handler steals 15000; a local call costs 500; a SAN
// operation 5000; a bus transaction 400.
const (
	eth16      = 106280
	eth16x3    = 108200
	eth16cross = 120120
	handler    = 15000
	local      = 500
	san        = 5000
	bus        = 400
)

func TestManagerEthernetNoticeWire(t *testing.T) {
	p := machine.Default()
	wire := EthernetWire(p.Ethernet, simnet.Topology{})
	wire.Notices = true
	r := newRig(t, 4, wire, simnet.Topology{}, true)
	r.m.NewLock()
	lock := r.m.NewLock() // id 1: homed at node 1
	for n := range r.clocks {
		r.ahead(n)
	}

	// The home itself pays a local call and no message.
	e := r.observe(1, func() { r.m.Acquire(1, lock) })
	r.expect("home acquire", e, local, 0, 0, nil)
	e = r.observe(1, func() { r.m.Release(1, lock) })
	r.expect("home release", e, local, 0, 0, nil)

	// Request to the home, then the home's notice message (empty list).
	e = r.observe(2, func() { r.m.Acquire(2, lock) })
	r.expect("remote acquire", e, eth16, eth16, 2, map[int]vclock.Duration{1: handler})

	// The release message carries the three notices to the home.
	r.eng.dirty(2, 3)
	e = r.observe(2, func() { r.m.Release(2, lock) })
	r.expect("remote release", e, eth16x3, 0, 1, map[int]vclock.Duration{1: handler})

	// The grant's notice message is charged to the network, after the wait.
	e = r.observe(3, func() { r.m.Acquire(3, lock) })
	r.expect("remote acquire with notices", e, eth16, eth16x3, 2, map[int]vclock.Duration{1: handler})
	if r.eng.dropped[3] != 3 {
		t.Errorf("acquirer invalidated %d pages, want 3", r.eng.dropped[3])
	}
	if got := r.rec.KindCount(3)[perfmon.EvInvalidate]; got != 1 {
		t.Errorf("EvInvalidate recorded %d times on the acquirer, want 1", got)
	}

	// A failed try pays for its request and touches nothing else.
	pending := r.m.locks[lock].board.Pending(0)
	e = r.observe(0, func() {
		if r.m.TryAcquire(0, lock) {
			t.Error("TryAcquire took a held lock")
		}
	})
	r.expect("failed try", e, eth16, 0, 1, map[int]vclock.Duration{1: handler})
	if r.m.locks[lock].board.Pending(0) != pending || r.eng.dropped[0] != 0 {
		t.Error("failed try drained the board")
	}
	r.m.Release(3, lock)

	// Central barrier: node 3 is last and furthest ahead, so its arrival
	// message (two notices) and the manager's notice message back (none
	// from the others) are all it is charged.
	r.eng.dirty(3, 2)
	e = r.barrier(3)
	r.expect("barrier, last arriver", e, 105000+80*32, eth16, 2, map[int]vclock.Duration{0: 3 * handler})
	if r.eng.dropped[1] != 3+2 { // the lock's three pending notices, then the barrier's two
		t.Errorf("node 1 invalidated %d pages over the run, want 5", r.eng.dropped[1])
	}

	// Piggybacked, the same grant costs only its payload bytes.
	wire.Piggyback = func(pages int) vclock.Duration { return vclock.Duration(8*pages) * p.Ethernet.NsPerByte }
	r = newRig(t, 4, wire, simnet.Topology{}, true)
	r.m.NewLock()
	lock = r.m.NewLock()
	for n := range r.clocks {
		r.ahead(n)
	}
	r.m.Acquire(2, lock)
	r.eng.dirty(2, 3)
	r.m.Release(2, lock)
	e = r.observe(3, func() { r.m.Acquire(3, lock) })
	r.expect("piggybacked grant", e, eth16, 3*8*80, 1, map[int]vclock.Duration{1: handler})
}

func TestManagerEthernetHierarchical(t *testing.T) {
	rack, _ := simnet.TopologyPreset(simnet.TopoRack)
	rack = rack.Normalize()
	r := newRig(t, 16, EthernetWire(machine.Default().Ethernet, rack), rack, false)
	var lock int
	for i := 0; i < 10; i++ {
		lock = r.m.NewLock() // id 9: token starts at node 9, in the second rack
	}
	for n := range r.clocks {
		r.ahead(n)
	}
	dl := r.m.locks[lock].dl

	// One forwarding hop across racks, then a payload-free grant from the
	// previous tail, which rides the handoff as protocol time. The tail
	// is interrupted twice: to take the request and to grant.
	e := r.observe(2, func() { r.m.Acquire(2, lock) })
	r.expect("queue acquire", e, 2*eth16cross, 0, 2, map[int]vclock.Duration{9: 2 * handler})
	e = r.observe(2, func() { r.m.Release(2, lock) })
	r.expect("queue release keeps the token", e, local, 0, 0, nil)
	e = r.observe(2, func() { r.m.Acquire(2, lock) })
	r.expect("holder re-acquires", e, local, 0, 0, nil)

	// A failed try prices its two-hop chain (3 → 9 → 2), counts one probe,
	// interrupts nobody and leaves every hint where it was.
	e = r.observe(3, func() {
		if r.m.TryAcquire(3, lock) {
			t.Error("TryAcquire took a held lock")
		}
	})
	r.expect("failed try on a queue", e, 2*eth16cross, 0, 1, nil)
	if dl.Holder() != 2 || dl.ChainLen(3) != 2 || dl.ChainLen(9) != 1 {
		t.Errorf("failed try moved the queue: holder %d, chain from 3 = %d, from 9 = %d",
			dl.Holder(), dl.ChainLen(3), dl.ChainLen(9))
	}
	r.m.Release(2, lock)

	// Tree barrier: node 15 climbs 15 → 8 (its rack leader) → 0 and the
	// payload-free release wave comes back down the same path. Only a
	// node's direct parent takes its arrival interrupt: the leader hears
	// its seven rack members, the root its seven plus the other leader.
	path := vclock.Duration(eth16 + eth16cross)
	e = r.barrier(15)
	r.expect("tree barrier", e, 2*path, 0, 2, map[int]vclock.Duration{8: 7 * handler, 0: 8 * handler})
}

func TestManagerAtomicWires(t *testing.T) {
	// SAN, flat: every operation is one remote atomic; the grant is the
	// atomic's reply. Nothing is interrupted or counted.
	r := newRig(t, 4, AtomicWire(san, san), simnet.Topology{}, true)
	lock := r.m.NewLock()
	for n := range r.clocks {
		r.ahead(n)
	}
	e := r.observe(0, func() { r.m.Acquire(0, lock) })
	r.expect("SAN acquire", e, 2*san, 0, 0, nil)
	r.eng.dirty(0, 3)
	e = r.observe(0, func() { r.m.Release(0, lock) })
	r.expect("SAN release", e, san, 0, 0, nil)
	e = r.observe(3, func() { r.m.Acquire(3, lock) })
	r.expect("SAN acquire with notices", e, 2*san, 0, 0, nil)
	if r.eng.dropped[3] != 3 || r.rec.KindCount(3)[perfmon.EvInvalidate] != 0 {
		t.Errorf("SAN acquirer: invalidated %d pages (want 3), EvInvalidate %d (want 0: no payload delivered)",
			r.eng.dropped[3], r.rec.KindCount(3)[perfmon.EvInvalidate])
	}
	e = r.barrier(3)
	r.expect("SAN barrier", e, 2*san, 0, 0, nil)

	// SAN, hierarchical: queue hops and tree edges each cost one
	// operation; holding the token costs nothing.
	wire := AtomicWire(san, san)
	wire.Hier = true
	r = newRig(t, 16, wire, simnet.Topology{}, true)
	for i := 0; i < 10; i++ {
		lock = r.m.NewLock()
	}
	for n := range r.clocks {
		r.ahead(n)
	}
	e = r.observe(2, func() { r.m.Acquire(2, lock) })
	r.expect("SAN queue acquire", e, 2*san, 0, 0, nil)
	e = r.observe(2, func() { r.m.Release(2, lock) })
	r.expect("SAN queue release", e, 0, 0, 0, nil)
	e = r.observe(2, func() { r.m.Acquire(2, lock) })
	r.expect("SAN holder re-acquires", e, 0, 0, 0, nil)
	r.m.Release(2, lock)
	e = r.barrier(15) // flat heap tree: 15 → 1 → 0
	r.expect("SAN tree barrier", e, 4*san, 0, 0, nil)

	// Bus: a locked transaction each way, and no grant reply.
	r = newRig(t, 2, AtomicWire(bus, 0), simnet.Topology{}, false)
	lock = r.m.NewLock()
	for n := range r.clocks {
		r.ahead(n)
	}
	e = r.observe(1, func() { r.m.Acquire(1, lock) })
	r.expect("bus acquire", e, bus, 0, 0, nil)
	e = r.observe(1, func() { r.m.Release(1, lock) })
	r.expect("bus release", e, bus, 0, 0, nil)
	e = r.barrier(1)
	r.expect("bus barrier", e, 2*bus, 0, 0, nil)
}

func TestManagerSANTreeRootPaysAnOperation(t *testing.T) {
	wire := AtomicWire(san, san)
	wire.Hier = true
	r := newRig(t, 16, wire, simnet.Topology{}, false)
	r.clocks[0].Advance(1e12)
	e := r.barrier(0)
	r.expect("SAN tree root", e, 2*san, 0, 0, nil)
}

func TestManagerCountsAndUnknownLock(t *testing.T) {
	r := newRig(t, 2, AtomicWire(bus, 0), simnet.Topology{}, false)
	lock := r.m.NewLock()
	r.m.Acquire(0, lock)
	r.m.Release(0, lock)
	if !r.m.TryAcquire(1, lock) {
		t.Fatal("TryAcquire failed on a free lock")
	}
	r.m.Release(1, lock)
	r.barrier(0)
	for n := 0; n < 2; n++ {
		s := r.m.SyncStats(n, platform.Stats{LockAcquires: 10})
		if s.LockAcquires != 11 || s.BarrierCrossings != 1 || r.m.ProtocolEpoch(n) != 1 {
			t.Errorf("node %d: %d acquires (want 10+1), %d crossings, epoch %d", n, s.LockAcquires, s.BarrierCrossings, r.m.ProtocolEpoch(n))
		}
		r.m.ResetSyncStats(n)
		if s := r.m.SyncStats(n, platform.Stats{}); s.LockAcquires != 0 || s.BarrierCrossings != 0 {
			t.Errorf("node %d: counters survive a reset: %+v", n, s)
		}
	}
	r.m.EnsureLocks(5)
	if r.m.LockCount() != 5 {
		t.Errorf("EnsureLocks(5) left %d locks", r.m.LockCount())
	}
	defer func() {
		if msg, _ := recover().(string); msg != "test: unknown lock 5" {
			t.Errorf("bad lock id panicked with %q", msg)
		}
	}()
	r.m.Acquire(0, 5)
}

// TestAbortWakesWaiters: AbortSync must wake a node blocked in Acquire, a
// node blocked in Barrier and a node blocked in a registered rendezvous,
// and make later arrivals panic instead of waiting.
func TestAbortWakesWaiters(t *testing.T) {
	extra := vclock.NewVBarrier(4)
	r := newRig(t, 4, AtomicWire(san, san), simnet.Topology{}, false, extra)
	lock := r.m.NewLock()
	r.m.Acquire(0, lock)

	panics := make(chan string, 4)
	blocked := func(op func()) {
		go func() {
			defer func() { msg, _ := recover().(string); panics <- msg }()
			op()
		}()
	}
	blocked(func() { r.m.Acquire(1, lock) })
	blocked(func() { r.m.Barrier(2) })
	blocked(func() { extra.Arrive(r.clocks[3], 0, 0) })
	select {
	case msg := <-panics:
		t.Fatalf("a waiter returned before the abort: %q", msg)
	case <-time.After(20 * time.Millisecond):
	}
	r.m.AbortSync("node 0 failed")
	blocked(func() { r.m.Barrier(3) }) // arrives after the abort
	for i := 0; i < 4; i++ {
		select {
		case msg := <-panics:
			if !strings.Contains(msg, "node 0 failed") {
				t.Errorf("waiter panicked with %q, want the abort reason", msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter is still blocked 5 s after AbortSync")
		}
	}
	r.m.Release(0, lock) // the holder may still release normally
}
