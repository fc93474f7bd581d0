// Package hybriddsm is a fixture for TestStructure: it resolves homes
// itself and keeps a second access path (one_access_path).
package hybriddsm

type node struct{ pages map[int][]byte }

func (n *node) homeOf(p int) int { return p % 4 }

func (n *node) readSpan(p int) []byte { return n.pages[n.homeOf(p)] }

func (n *node) touchLocal() {}
