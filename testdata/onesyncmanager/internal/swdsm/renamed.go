// Package swdsm is a fixture for TestOneSyncManager: it imports hsync
// under another name.
package swdsm

import (
	hs "hamster/internal/hsync"
)

var tree = func() any {
	return hs.NewTree(16, hs.Topology{})
}
