// Package swdsm is a fixture for TestStructure: it imports hsync under
// another name (one_sync_manager), and its touchLocal does not inline
// (touchlocal_inlines).
package swdsm

import hs "hamster/internal/hsync"

var tree = func() any { return hs.NewTree(16, hs.Topology{}) }

type node struct{ hits int }

//go:noinline
func (n *node) touchLocal() { n.hits++ }
