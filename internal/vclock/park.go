package vclock

import (
	"sync"
	"sync/atomic"
)

// Queue is the park primitive: a mutex, and the goroutines parked under
// it (Clock.Park) until a predicate over the state it guards holds. Every
// virtual-time wait is one — VBarrier, VLock, VCond, VSemaphore, ivy's
// wait for a page's invalidation round — and keeps only its release rule:
// whom its releaser wakes, and what each does with its clock on the way
// out. A failure reaches them all through their clocks (Clock.Poison).
// The zero Queue is ready to use; it must not be copied after first use,
// and the clocks parking in it belong to one cluster (or are zero).
type Queue struct {
	sync.Mutex
	cond   sync.Cond
	parked int // goroutines parked through a cluster's clocks
}

// Broadcast wakes every goroutine parked in q. The caller holds q's lock.
func (q *Queue) Broadcast() { q.cond.Broadcast() }

// poison is shared by the clocks of one cluster: the first failure, and
// the queues goroutines are parked in through those clocks.
type poison struct {
	msg    atomic.Pointer[string] // nil until the cluster fails
	mu     sync.Mutex
	queues map[*Queue]struct{}
}

// NewClocks returns the n clocks of one cluster. They share one poison:
// Poison on any of them fails every park made through any of them.
func NewClocks(n int) []*Clock {
	p := &poison{queues: make(map[*Queue]struct{})}
	clocks := make([]*Clock, n)
	for i := range clocks {
		clocks[i] = &Clock{poison: p}
	}
	return clocks
}

// Poison fails c's cluster: every goroutine parked through one of its
// clocks wakes and panics naming reason, and so does every later park.
// The first reason stays. On a zero Clock, Poison does nothing.
func (c *Clock) Poison(reason string) {
	p, msg := c.poison, "vclock: wait aborted: "+reason
	if p == nil || !p.msg.CompareAndSwap(nil, &msg) {
		return
	}
	// A goroutine parking after this snapshot sees the message and does
	// not wait; one parked before is in a listed queue, which it holds
	// until it waits.
	p.mu.Lock()
	queues := make([]*Queue, 0, len(p.queues))
	for q := range p.queues {
		queues = append(queues, q)
	}
	p.mu.Unlock()
	for _, q := range queues {
		q.Lock()
		q.Broadcast()
		q.Unlock()
	}
}

// Park parks the goroutine c runs for in q until ready holds. The caller
// holds q's lock; ready runs under it, before any wait and after every
// wake, and Park returns with the lock held. A ready that holds at once
// reads nothing shared. On a poisoned cluster, a Park that would wait, or
// is waiting, unlocks q and panics with the first failure, so callers do
// not defer the unlock. Park charges nothing to c.
func (c *Clock) Park(q *Queue, ready func() bool) {
	for !ready() {
		c.wait(q)
	}
}

// wait is one wait of Park.
func (c *Clock) wait(q *Queue) {
	if q.cond.L == nil { // set once: a woken waiter reads it unlocked
		q.cond.L = &q.Mutex
	}
	p := c.poison
	if p == nil {
		q.cond.Wait()
		return
	}
	// A queue is listed while anyone is parked in it, so the cluster's
	// mutex is taken only by the first to park and the last to leave.
	if q.parked++; q.parked == 1 {
		p.mu.Lock()
		p.queues[q] = struct{}{}
		p.mu.Unlock()
	}
	if p.msg.Load() == nil {
		q.cond.Wait()
	}
	if q.parked--; q.parked == 0 {
		p.mu.Lock()
		delete(p.queues, q)
		p.mu.Unlock()
	}
	c.check(q)
}

// check unlocks q and panics if c's cluster is poisoned.
func (c *Clock) check(q *Queue) {
	if p := c.poison; p != nil {
		if msg := p.msg.Load(); msg != nil {
			q.Unlock()
			panic(*msg)
		}
	}
}
