package core

import (
	"fmt"

	"hamster/internal/memsim"
	"hamster/internal/platform"
)

// MemMgr is the Memory Management module (§4.2): global allocation with
// coherence constraints and distribution annotations, plus the capability
// test that lets models probe what the memory subsystem supports.
type MemMgr struct {
	e *Env
}

// AllocOpts parameterizes a global allocation — the service's flexibility
// knobs (§4.1) that let each model map its own allocation call directly.
type AllocOpts struct {
	// Name labels the region for diagnostics.
	Name string
	// Policy is the distribution annotation.
	Policy memsim.Policy
	// FixedNode is the target of the Fixed policy.
	FixedNode int
	// Collective makes the allocation SPMD-wide: every node calls, all
	// receive the same region, with an implicit barrier (the JiaJia/HLRC
	// and SPMD-model allocation style; TreadMarks instead allocates on one
	// node and calls Distribute).
	Collective bool
}

// Alloc reserves global shared memory.
func (m *MemMgr) Alloc(size uint64, opts AllocOpts) (memsim.Region, error) {
	m.e.charge(ModMem)
	if !m.Probe().SupportsPolicy(opts.Policy) {
		return memsim.Region{}, fmt.Errorf("core: substrate %v does not support %v placement",
			m.e.rt.sub.Kind(), opts.Policy)
	}
	if opts.Collective {
		return m.e.rt.collectiveAlloc(m.e, size, opts.Name, opts.Policy, opts.FixedNode)
	}
	return m.e.rt.sub.Alloc(size, opts.Name, opts.Policy, opts.FixedNode)
}

// Free releases a region. Not collective; models add their own semantics.
func (m *MemMgr) Free(r memsim.Region) error {
	m.e.charge(ModMem)
	return m.e.rt.sub.Free(r)
}

// Distribute announces a single-node allocation to all other nodes
// (TreadMarks-style: Tmk_malloc on one node, then Tmk_distribute). The
// region metadata travels as a broadcast over the cluster-control
// messaging layer.
func (m *MemMgr) Distribute(r memsim.Region) {
	m.e.charge(ModMem)
	payload := encodeRegion(r)
	m.e.rt.msgs.Broadcast(toNodeID(m.e.id), kindRegionAnnounce, 0, payload)
}

// AcceptRegion receives a region distributed by another node.
func (m *MemMgr) AcceptRegion() (memsim.Region, bool) {
	m.e.charge(ModMem)
	msg := m.e.rt.msgs.Recv(toNodeID(m.e.id), kindRegionAnnounce, nil)
	if msg == nil {
		return memsim.Region{}, false
	}
	r := decodeRegion(msg.Payload)
	msg.Free()
	return r, true
}

// Probe returns the substrate's memory-system capabilities — the
// "capability test routine" of §4.2.
func (m *MemMgr) Probe() platform.Caps {
	return m.e.rt.sub.Caps()
}

// RegionOf looks up the region containing an address.
func (m *MemMgr) RegionOf(a memsim.Addr) (memsim.Region, bool) {
	return m.e.rt.sub.Space().RegionOf(a)
}
