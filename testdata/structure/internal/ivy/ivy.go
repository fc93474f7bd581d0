// Package ivy is a fixture for TestStructure: it builds a lock queue and a
// virtual lock of its own (one_sync_manager). hsync.NewTree(16) in a
// comment is not a call.
package ivy

import (
	"hamster/internal/hsync"
	"hamster/internal/vclock"
)

type node struct{ hits int }

// touchLocal inlines (touchlocal_inlines).
func (n *node) touchLocal() { n.hits++ }

func build() {
	_ = hsync.NewDLock(nil, 4, 0)
	_ = vclock.NewVLock()
	_ = vclock.NewVBarrier(4) // allowed: not a lock or a hierarchy
}
