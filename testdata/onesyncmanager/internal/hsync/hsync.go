// Package hsync is a fixture for TestOneSyncManager: the manager itself
// may build virtual locks.
package hsync

import "hamster/internal/vclock"

func newLock() any { return vclock.NewVLock() }
