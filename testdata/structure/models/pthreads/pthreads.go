// Package pthreads is a fixture for TestStructure: it makes a channel,
// broadcasts by hand and starts a goroutine (one_spawn_site).
package pthreads

import "hamster"

type PT struct{ t *hamster.Env }

func (p *PT) Create(f func()) {
	t := p.t
	done := make(chan struct{})
	t.Cluster.Broadcast(0, nil)
	defer func() { go f() }()
	<-done
}
