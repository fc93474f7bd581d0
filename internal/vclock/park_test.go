package vclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// parkCases builds each virtual-time wait fresh: wait parks the calling
// goroutine through c, and release is what lets one waiter go. A barrier
// has two parties; a lock is held, by holder, from the start.
var parkCases = []struct {
	name  string
	build func(holder *Clock) (wait, release func(c *Clock))
}{
	{"barrier", func(*Clock) (wait, release func(*Clock)) {
		b := NewVBarrier(2)
		arrive := func(c *Clock) { b.Arrive(c, 0, 0) }
		return arrive, arrive
	}},
	{"lock", func(holder *Clock) (wait, release func(*Clock)) {
		l := NewVLock()
		l.Acquire(holder, 0, 0)
		return func(c *Clock) { l.Acquire(c, 0, 0) }, func(*Clock) { l.Release(holder, 0) }
	}},
	{"cond", func(*Clock) (wait, release func(*Clock)) {
		v, registered := new(VCond), make(chan struct{})
		return func(c *Clock) {
				v.WaitWith(c, 0, func() {
					select {
					case <-registered:
					default:
						close(registered)
					}
				})
			}, func(c *Clock) {
				<-registered // a broadcast before the wait began is not its wake
				v.Broadcast(c, 0)
			}
	}},
	{"semaphore", func(*Clock) (wait, release func(*Clock)) {
		s := NewVSemaphore(0, 0)
		return func(c *Clock) { s.Acquire(c, 0) }, func(c *Clock) { s.Release(c, 1, 0) }
	}},
	{"event", func(*Clock) (wait, release func(*Clock)) {
		v := new(VCond)
		return func(c *Clock) { v.Await(c, 0) }, func(c *Clock) { v.Broadcast(c, 0) }
	}},
}

// panicOf runs fn on its own goroutine and delivers what it panicked
// with, "" for a return.
func panicOf(fn func()) <-chan string {
	got := make(chan string, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				got <- fmt.Sprint(r)
				return
			}
			got <- ""
		}()
		fn()
	}()
	return got
}

// within returns what got delivers, failing the test after 5 s.
func within(t *testing.T, what string, got <-chan string) string {
	t.Helper()
	select {
	case msg := <-got:
		return msg
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still parked 5 s later", what)
		return ""
	}
}

// parked counts the queues goroutines are parked in through the clocks
// of c's cluster.
func parked(c *Clock) int {
	p := c.poison
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queues)
}

// TestPoisonWakesEveryPark: poisoning a cluster through any one of its
// clocks wakes a goroutine parked in each kind of wait with a panic
// naming the first failure, without the primitive knowing of the poison,
// and a later arrival panics at once instead of parking. A zero Clock
// belongs to no cluster: its waits block and release as they always did.
func TestPoisonWakesEveryPark(t *testing.T) {
	for _, pc := range parkCases {
		t.Run(pc.name, func(t *testing.T) {
			clocks := NewClocks(3)
			wait, release := pc.build(clocks[0])
			woke := panicOf(func() { wait(clocks[1]) })
			for parked(clocks[0]) == 0 {
				time.Sleep(time.Millisecond)
			}
			clocks[2].Poison("node 2 failed: boom")
			clocks[0].Poison("a second failure")
			if msg := within(t, "parked waiter", woke); !strings.Contains(msg, "node 2 failed: boom") {
				t.Fatalf("parked waiter panicked with %q, want the first failure", msg)
			}
			if msg := within(t, "later arrival", panicOf(func() { wait(clocks[1]) })); !strings.Contains(msg, "node 2 failed: boom") {
				t.Fatalf("later arrival panicked with %q, want the first failure", msg)
			}
			if n := parked(clocks[0]); n != 0 {
				t.Fatalf("%d queues still listed as holding parked goroutines", n)
			}
			// A release parks nobody: the lock's holder, say, still
			// releases. Only a barrier's release is an arrival, and panics.
			if msg := within(t, "release", panicOf(func() { release(clocks[0]) })); msg != "" && !strings.Contains(msg, "node 2 failed: boom") {
				t.Fatalf("release after the poison panicked with %q", msg)
			}
		})
		t.Run(pc.name+"/zero-clock", func(t *testing.T) {
			var holder, waiter, releaser Clock
			wait, release := pc.build(&holder)
			done := make(chan struct{})
			go func() {
				defer close(done)
				wait(&waiter)
			}()
			waiter.Poison("ignored")
			select {
			case <-done:
				t.Fatal("the wait returned before its release")
			case <-time.After(20 * time.Millisecond):
			}
			release(&releaser)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the wait is still parked 5 s after its release")
			}
		})
	}
}
