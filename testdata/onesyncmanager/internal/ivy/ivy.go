// Package ivy is a fixture for TestOneSyncManager: it builds a lock
// queue and a virtual lock of its own. hsync.NewTree(16) in a comment
// is not a call.
package ivy

import "hamster/internal/hsync"
import "hamster/internal/vclock"

func build() {
	_ = hsync.NewDLock(nil, 4, 0)
	_ = vclock.NewVLock()
	_ = vclock.NewVBarrier(4) // allowed: not a lock or a hierarchy
}
