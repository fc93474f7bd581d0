// Package vclock is a fixture for TestStructure: Queue is the park
// primitive, allowed by name (one_park_primitive).
package vclock

import "sync"

// Queue is the fixture's park primitive.
type Queue struct {
	sync.Mutex
	cond sync.Cond
}

// VLock and VBarrier stand in for the virtual lock and barrier.
type (
	VLock    struct{ q Queue }
	VBarrier struct{ q Queue }
)

func NewVLock() *VLock { return new(VLock) }

func NewVBarrier(n int) *VBarrier { return new(VBarrier) }
