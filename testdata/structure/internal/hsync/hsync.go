// Package hsync is a fixture for TestStructure: the manager itself may
// build virtual locks (one_sync_manager).
package hsync

import "hamster/internal/vclock"

type (
	Topology struct{}
	DLock    struct{ l *vclock.VLock }
	Tree     struct{}
)

func NewDLock(_ any, nodes, home int) *DLock { return &DLock{vclock.NewVLock()} }

func NewTree(nodes int, _ Topology) *Tree { return new(Tree) }
