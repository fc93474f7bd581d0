package vclock

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %d, want 0", c.Now())
	}
	c.Advance(100)
	c.Advance(50)
	if got := c.Now(); got != 150 {
		t.Fatalf("Now = %d, want 150", got)
	}
}

func TestClockAdvanceToMonotonic(t *testing.T) {
	var c Clock
	c.Advance(1000)
	c.AdvanceToCat(CatProtocol, 500) // earlier: must not move backwards
	if got := c.Now(); got != 1000 {
		t.Fatalf("Now = %d after AdvanceToCat(500), want 1000", got)
	}
	c.AdvanceToCat(CatProtocol, 2000)
	if got := c.Now(); got != 2000 {
		t.Fatalf("Now = %d after AdvanceToCat(2000), want 2000", got)
	}
}

func TestClockSteal(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Steal(0, 40)
	if got := c.Now(); got != 140 {
		t.Fatalf("Now = %d, want 140", got)
	}
	if got := c.Breakdown().Stolen; got != 40 {
		t.Fatalf("Stolen = %d, want 40", got)
	}
	// AdvanceToCat accounts for stolen time.
	c.AdvanceToCat(CatProtocol, 200)
	if got := c.Now(); got != 200 {
		t.Fatalf("Now = %d, want 200", got)
	}
}

func TestClockStealBelowStolen(t *testing.T) {
	var c Clock
	c.Steal(0, 100)
	c.AdvanceToCat(CatProtocol, 50) // target already passed via stolen time
	if got := c.Now(); got != 100 {
		t.Fatalf("Now = %d, want 100", got)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Steal(0, 5)
	c.reset()
	if c.Now() != 0 || c.Breakdown().Stolen != 0 {
		t.Fatalf("Reset did not zero the clock: now=%d stolen=%d", c.Now(), c.Breakdown().Stolen)
	}
}

func TestClockConcurrentSteal(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Steal(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Breakdown().Stolen; got != workers*per {
		t.Fatalf("Stolen = %d, want %d", got, workers*per)
	}
}

func TestMaxAndSince(t *testing.T) {
	if Since(10, 5) != 0 {
		t.Fatal("Since must clamp at zero")
	}
	if Since(5, 10) != 5 {
		t.Fatal("Since(5,10) != 5")
	}
}

func TestMaxAll(t *testing.T) {
	if MaxAll(nil) != 0 {
		t.Fatal("MaxAll(nil) != 0")
	}
	a, b, c := &Clock{}, &Clock{}, &Clock{}
	a.Advance(10)
	b.Advance(30)
	c.Advance(20)
	if got := MaxAll([]*Clock{a, b, c}); got != 30 {
		t.Fatalf("MaxAll = %d, want 30", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2_500_000, "2.500ms"},
		{3_000_000_000, "3.000s"},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("Duration(%d).String() = %q, want %q", uint64(tc.d), got, tc.want)
		}
	}
}

// Property: AdvanceToCat never moves a clock backwards and always reaches the
// target (when reachable by local advance).
func TestAdvanceToProperty(t *testing.T) {
	f := func(start, target uint32) bool {
		var c Clock
		c.Advance(Duration(start))
		before := c.Now()
		c.AdvanceToCat(CatProtocol, Time(target))
		after := c.Now()
		if after < before {
			return false
		}
		return after >= Time(target)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleavings of Advance and Steal always sum.
func TestAdvanceStealSumProperty(t *testing.T) {
	f := func(adv, st []uint16) bool {
		var c Clock
		var want uint64
		for i := 0; i < len(adv) || i < len(st); i++ {
			if i < len(adv) {
				c.Advance(Duration(adv[i]))
				want += uint64(adv[i])
			}
			if i < len(st) {
				c.Steal(0, Duration(st[i]))
				want += uint64(st[i])
			}
		}
		return c.Now() == Time(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVBarrierReconcilesClocks(t *testing.T) {
	const n = 4
	b := NewVBarrier(n)
	clocks := make([]*Clock, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		clocks[i] = &Clock{}
		clocks[i].Advance(Duration(100 * (i + 1))) // staggered arrivals: max 400
		wg.Add(1)
		go func(c *Clock) {
			defer wg.Done()
			b.Arrive(c, 10, 5)
		}(clocks[i])
	}
	wg.Wait()
	// Max arrival = 400+10 = 410; everyone leaves at 410+5 = 415.
	for i, c := range clocks {
		if got := c.Now(); got != 415 {
			t.Errorf("clock %d = %d, want 415", i, got)
		}
	}
}

// TestVBarrierStealOrderIndependent: a stolen charge delays a party's
// arrival when its message reached the party before the party's own
// clock got to the barrier, whichever side of the arrival it lands on in
// host time. A reaches the barrier at 100; the messages at 60 and 105
// (105 is before 100+10) interrupt its work, the one at 130 finds it
// waiting. So B is released at 120 and A, whose absorbed handler still
// ran, at 130 — in every host order.
func TestVBarrierStealOrderIndependent(t *testing.T) {
	steals := []struct{ at, d uint64 }{{130, 10}, {60, 10}, {105, 10}}
	for before := 0; before <= len(steals); before++ {
		var a, b Clock
		a.Advance(100)
		bar := NewVBarrier(2)
		steal := func(i int) { a.Steal(Time(steals[i].at), Duration(steals[i].d)) }
		for i := 0; i < before; i++ {
			steal(i)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			bar.Arrive(&a, 0, 0)
		}()
		for parked := false; !parked; {
			bar.q.Lock()
			parked = bar.arrived == 1
			bar.q.Unlock()
		}
		for i := before; i < len(steals); i++ {
			steal(i)
		}
		bar.Arrive(&b, 0, 0)
		<-done
		if a.Now() != 130 || b.Now() != 120 {
			t.Errorf("%d steals before A arrived: A at %d, B at %d; want 130, 120", before, a.Now(), b.Now())
		}
		if a.OwnNow() != a.Now() {
			t.Errorf("%d steals before A arrived: OwnNow %d after the barrier, Now %d", before, a.OwnNow(), a.Now())
		}
	}
}

// TestLedgerArrivalIsTheFold: however many charges a phase collects and
// whenever the node's own clock moves between them, the arrival is the
// fold the model defines — every charge in message-time order, each
// delaying the node when its message came before the node got there —
// over the node's final own clock. Ten thousand charges make the ledger
// compact several times on the way.
func TestLedgerArrivalIsTheFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var c Clock
		var all []steal
		for i := 0; i < 10_000; i++ {
			if rng.Intn(4) == 0 {
				c.Advance(Duration(rng.Intn(40)))
			}
			s := steal{Time(rng.Intn(100_000)), Duration(1 + rng.Intn(20))}
			c.Steal(s.at, s.d)
			all = append(all, s)
		}
		slices.SortFunc(all, func(x, y steal) int { return cmp.Compare(x.at, y.at) })
		want := c.OwnNow()
		for _, s := range all {
			if s.at >= want {
				break
			}
			want += Time(s.d)
		}
		if got := c.arrival(); got != want {
			t.Fatalf("trial %d: arrival %d, want the fold's %d", trial, got, want)
		}
	}
}

// TestLedgerKeepsChargesAheadOfABlockedNode: a node whose own clock stays
// behind its messages (blocked, serving requests) keeps every charge
// pending past the first compaction, rather than counting the later ones
// at once.
func TestLedgerKeepsChargesAheadOfABlockedNode(t *testing.T) {
	var c Clock
	for i := 0; i <= 2*compactAt; i++ {
		c.Steal(Time(1000+i), 1)
	}
	if got := c.arrival(); got != 0 {
		t.Errorf("arrival %d, want 0: every message came after the node stopped", got)
	}
}

func TestVBarrierReusable(t *testing.T) {
	const n = 3
	b := NewVBarrier(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var c Clock
			for round := 0; round < 10; round++ {
				c.Advance(Duration(k + 1))
				b.Arrive(&c, 0, 0)
			}
		}(i)
	}
	wg.Wait() // must not deadlock
}

func TestNewVBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero parties")
		}
	}()
	NewVBarrier(0)
}

func TestVLockSerializesVirtualTime(t *testing.T) {
	l := NewVLock()
	const n = 8
	clocks := make([]*Clock, n)
	times := make([]Time, n)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		clocks[i] = &Clock{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			at := l.Acquire(clocks[k], 10, 10)
			mu.Lock()
			order = append(order, k)
			times[k] = at
			mu.Unlock()
			clocks[k].Advance(100) // critical section work
			l.Release(clocks[k], 10)
		}(i)
	}
	wg.Wait()
	if len(order) != n {
		t.Fatalf("%d acquisitions, want %d", len(order), n)
	}
	// In acquisition order, hold times must be strictly increasing by at
	// least the critical section + handoff costs.
	for idx := 1; idx < len(order); idx++ {
		prev, cur := order[idx-1], order[idx]
		if times[cur] < times[prev]+100 {
			t.Fatalf("holder %d at %d overlaps holder %d at %d",
				cur, times[cur], prev, times[prev])
		}
	}
}

func TestVLockTryAcquire(t *testing.T) {
	l := NewVLock()
	var a, b Clock
	if !l.TryAcquire(&a, 1, 1) {
		t.Fatal("first TryAcquire should succeed")
	}
	if l.TryAcquire(&b, 1, 1) {
		t.Fatal("second TryAcquire should fail while held")
	}
	l.Release(&a, 1)
	if !l.TryAcquire(&b, 1, 1) {
		t.Fatal("TryAcquire should succeed after release")
	}
	l.Release(&b, 1)
}

func TestVLockReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for releasing unheld lock")
		}
	}()
	var c Clock
	NewVLock().Release(&c, 0)
}

func TestVCondWaitAfterSignalGeneration(t *testing.T) {
	v := new(VCond)
	var signaler Clock
	signaler.Advance(1000)

	var waiter Clock
	done := make(chan struct{})
	go func() {
		v.WaitWith(&waiter, 7, func() {})
		close(done)
	}()
	// Broadcast repeatedly until the waiter is woken: Wait only observes
	// generations started after it began waiting, so a single broadcast
	// could race with the waiter's registration.
	for woken := false; !woken; {
		v.Broadcast(&signaler, 0)
		select {
		case <-done:
			woken = true
		case <-time.After(time.Millisecond):
		}
	}
	if got := waiter.Now(); got < 1000+7 {
		t.Fatalf("waiter clock = %d, want >= %d", got, 1000+7)
	}
}

func BenchmarkClockAdvance(b *testing.B) {
	var c Clock
	for i := 0; i < b.N; i++ {
		c.Advance(1)
	}
}

// BenchmarkClockAdvanceAdjacent charges neighbouring clocks of one slice
// from different goroutines, as node goroutines do on every simulated
// word. Run with -cpu 1,2: when neighbours share a cache line the -cpu 2
// figure is worse than the -cpu 1 figure instead of half of it.
func BenchmarkClockAdvanceAdjacent(b *testing.B) {
	clocks := make([]Clock, 8)
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		c := &clocks[int(next.Add(1))%len(clocks)]
		for pb.Next() {
			c.AdvanceCat(CatMemory, 1)
		}
	})
}

// TestClockFillsWholeLines: clocks are allocated back to back (one per
// node), and every simulated word writes one; a clock that is not a whole
// number of 128-byte lines shares its last line with the next node's.
func TestClockFillsWholeLines(t *testing.T) {
	if sz := unsafe.Sizeof(Clock{}); sz%128 != 0 {
		t.Fatalf("sizeof(Clock) = %d, want a multiple of 128", sz)
	}
}

func BenchmarkVLockUncontended(b *testing.B) {
	l := NewVLock()
	var c Clock
	for i := 0; i < b.N; i++ {
		l.Acquire(&c, 1, 1)
		l.Release(&c, 1)
	}
}

func TestVSemaphoreBasics(t *testing.T) {
	s := NewVSemaphore(1, 2)
	var c Clock
	s.Acquire(&c, 5)
	if s.count != 0 {
		t.Fatal("count after acquire")
	}
	if s.TryAcquire(&c, 1) {
		t.Fatal("TryAcquire must fail at zero")
	}
	if !s.Release(&c, 1, 5) {
		t.Fatal("release failed")
	}
	if !s.TryAcquire(&c, 1) {
		t.Fatal("TryAcquire must succeed after release")
	}
	// Exceeding max fails.
	s.Release(&c, 1, 0)
	s.Release(&c, 1, 0)
	if s.Release(&c, 1, 0) {
		t.Fatal("release beyond max must fail")
	}
}

// TestVSemaphoreRejectsNonPositiveRelease: like Win32 ReleaseSemaphore
// with lReleaseCount <= 0, a release of no units or of a negative count
// fails and leaves the count alone, so it cannot conjure a unit later.
func TestVSemaphoreRejectsNonPositiveRelease(t *testing.T) {
	for _, n := range []int{0, -1} {
		s := NewVSemaphore(0, 0)
		var c Clock
		if s.Release(&c, n, 0) {
			t.Errorf("Release(%d) on an empty semaphore reported success", n)
		}
		if s.TryAcquire(&c, 0) {
			t.Errorf("after Release(%d): TryAcquire granted a unit nobody released", n)
		}
		if s.count != 0 {
			t.Errorf("after Release(%d): count %d, want 0", n, s.count)
		}
	}
}

func TestVSemaphoreBlocksAndReconciles(t *testing.T) {
	s := NewVSemaphore(0, 0)
	var producer, consumer Clock
	producer.Advance(10_000)
	done := make(chan struct{})
	go func() {
		s.Acquire(&consumer, 1)
		close(done)
	}()
	s.Release(&producer, 1, 100)
	<-done
	if consumer.Now() < 10_100 {
		t.Fatalf("consumer clock %d not reconciled with producer", consumer.Now())
	}
}

func TestVSemaphorePanicsOnBadInit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVSemaphore(5, 2)
}

func TestVBarrierGenerationIsolation(t *testing.T) {
	// Regression test: a fast party racing ahead into generation g+1 must
	// not inflate the release time handed to generation g's waiters. Two
	// parties: A arrives at t=10 and t=1000 (gen 0 and 1); B arrives at
	// t=20. B's gen-0 release must be max(10,20)=20, never 1000.
	b := NewVBarrier(2)
	var a, bb Clock
	a.Advance(10)
	bb.Advance(20)

	bArrived := make(chan Time, 1)
	go func() {
		bArrived <- b.Arrive(&bb, 0, 0)
	}()
	a.Advance(0)
	b.Arrive(&a, 0, 0) // completes gen 0 (order of A/B arrival irrelevant)
	// A races ahead: a huge arrival for gen 1 before B reads its release.
	a.AdvanceToCat(CatProtocol, 1000)
	done := make(chan struct{})
	go func() {
		b.Arrive(&a, 0, 0)
		close(done)
	}()
	got := <-bArrived
	if got > 100 {
		t.Fatalf("gen-0 release = %v, polluted by gen-1 arrival", got)
	}
	// Let B join gen 1 so the goroutine finishes.
	b.Arrive(&bb, 0, 0)
	<-done
}

// reset returns the clock (and its attribution) to time zero. Must not
// race with other use.
func (c *Clock) reset() {
	c.stolen.Store(0)
	for i := range c.cats {
		c.cats[i].Store(0)
	}
	c.settle()
}
