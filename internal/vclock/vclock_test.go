package vclock

import (
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
	c.AdvanceTo(500) // earlier: must not move backwards
	if got := c.Now(); got != 1000 {
		t.Fatalf("Now = %d after AdvanceTo(500), want 1000", got)
	}
	c.AdvanceTo(2000)
	if got := c.Now(); got != 2000 {
		t.Fatalf("Now = %d after AdvanceTo(2000), want 2000", got)
	}
}

func TestClockSteal(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Steal(40)
	if got := c.Now(); got != 140 {
		t.Fatalf("Now = %d, want 140", got)
	}
	if got := c.Stolen(); got != 40 {
		t.Fatalf("Stolen = %d, want 40", got)
	}
	// AdvanceTo accounts for stolen time.
	c.AdvanceTo(200)
	if got := c.Now(); got != 200 {
		t.Fatalf("Now = %d, want 200", got)
	}
}

func TestClockStealBelowStolen(t *testing.T) {
	var c Clock
	c.Steal(100)
	c.AdvanceTo(50) // target already passed via stolen time
	if got := c.Now(); got != 100 {
		t.Fatalf("Now = %d, want 100", got)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Steal(5)
	c.Reset()
	if c.Now() != 0 || c.Stolen() != 0 {
		t.Fatalf("Reset did not zero the clock: now=%d stolen=%d", c.Now(), c.Stolen())
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
				c.Steal(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Stolen(); got != workers*per {
		t.Fatalf("Stolen = %d, want %d", got, workers*per)
	}
}

func TestMaxAndSince(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
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

// Property: AdvanceTo never moves a clock backwards and always reaches the
// target (when reachable by local advance).
func TestAdvanceToProperty(t *testing.T) {
	f := func(start, target uint32) bool {
		var c Clock
		c.Advance(Duration(start))
		before := c.Now()
		c.AdvanceTo(Time(target))
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
				c.Steal(Duration(st[i]))
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
	if b.Parties() != n {
		t.Fatalf("Parties = %d, want %d", b.Parties(), n)
	}
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
	if l.Acquisitions() != n {
		t.Fatalf("Acquisitions = %d, want %d", l.Acquisitions(), n)
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
	v := NewVCond()
	var signaler Clock
	signaler.Advance(1000)

	var waiter Clock
	done := make(chan struct{})
	go func() {
		v.Wait(&waiter, 7)
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
	if s.Count() != 0 {
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
	a.AdvanceTo(1000)
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
