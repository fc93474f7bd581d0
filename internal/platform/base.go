package platform

import (
	"fmt"

	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

// Base is the chassis every substrate embeds: the cost model, the global
// address space and the per-node clocks, built once by NewBase, with the
// seven Substrate methods that only read them. A substrate writes only what
// makes it different — its data path, its Caps, its engine — and its data
// path reads Cost and Clocks as plain fields, never through a method.
type Base struct {
	// Cost is the cost model (Params returns a copy).
	Cost machine.Params
	// Mem is the global address space.
	Mem *memsim.Space
	// Clocks holds one virtual clock per node; its length is the node count.
	Clocks []*vclock.Clock
}

// NewBase does the construction every substrate's New shares: it rejects
// nodes <= 0 naming pkg, defaults zero params to machine.Default(), and
// adopts space and clocks when given (a multi-DSM composition shares both
// between its engines) or makes fresh ones: one cluster's clocks, which
// share the poison a failure sets (vclock.Clock.Poison).
func NewBase(pkg string, nodes int, params machine.Params, space *memsim.Space, clocks []*vclock.Clock) (Base, error) {
	if nodes <= 0 {
		return Base{}, fmt.Errorf("%s: need at least one node, got %d", pkg, nodes)
	}
	if params.Name == "" {
		params = machine.Default()
	}
	if space == nil {
		space = memsim.NewSpace(nodes)
	}
	if clocks == nil {
		clocks = vclock.NewClocks(nodes)
	} else if len(clocks) != nodes {
		return Base{}, fmt.Errorf("%s: %d clocks for %d nodes", pkg, len(clocks), nodes)
	}
	return Base{Cost: params, Mem: space, Clocks: clocks}, nil
}

// Policies is every placement policy; all substrates accept all four.
func Policies() []memsim.Policy {
	return []memsim.Policy{memsim.Block, memsim.Cyclic, memsim.FirstTouch, memsim.Fixed}
}

// Nodes implements Substrate.
func (b *Base) Nodes() int { return len(b.Clocks) }

// Clock implements Substrate.
func (b *Base) Clock(node int) *vclock.Clock { return b.Clocks[node] }

// Space implements Substrate.
func (b *Base) Space() *memsim.Space { return b.Mem }

// Params implements Substrate.
func (b *Base) Params() machine.Params { return b.Cost }

// Alloc implements Substrate: placement in the address space is all a
// non-routing substrate does (on UMA hardware the annotation is accepted
// and irrelevant).
func (b *Base) Alloc(size uint64, name string, pol memsim.Policy, fixedNode int) (memsim.Region, error) {
	return b.Mem.Alloc(size, name, pol, fixedNode)
}

// Free implements Substrate.
func (b *Base) Free(r memsim.Region) error { return b.Mem.Free(r) }

// Compute implements Substrate.
func (b *Base) Compute(node int, flops uint64) {
	b.Clocks[node].Advance(vclock.Duration(flops) * b.Cost.CPU.FlopNs)
}

// BadNode is the panic message of an access a substrate cannot serve: the
// node is out of range, or the substrate is closed and its page buffers
// are back on the page list, where a later runtime may be writing them.
func BadNode(pkg string, node int, closed bool) string {
	if closed {
		return fmt.Sprintf("%s: node %d accessed memory after Close", pkg, node)
	}
	return fmt.Sprintf("%s: invalid node %d", pkg, node)
}
