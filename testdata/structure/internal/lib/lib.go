// Package lib is a fixture for TestStructure: each of its waits is one
// one_park_primitive must find.
package lib

import "sync"

type waiter struct {
	mu   sync.Mutex
	cond *sync.Cond
}

func newWaiter() *waiter {
	w := &waiter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Gate builds its condition where it waits.
type Gate struct{ mu sync.Mutex }

func (g *Gate) wait() {
	c := sync.Cond{L: &g.mu}
	c.Wait()
}
