// Package shmem implements the Cray SHMEM one-sided put/get programming
// model (Cray T3E, SG-2178) on top of HAMSTER — the far end of the model
// spectrum from the thread APIs (§5.2, Table 2). SHMEM's defining features
// are the symmetric heap (an allocation yields one instance per PE at the
// same logical address) and one-sided remote memory access: put/get move
// data without any action by the target PE, which maps naturally onto
// HAMSTER's global memory abstraction and especially well onto the hybrid
// DSM's hardware remote access.
//
// Method names mirror the original entry points:
//
//	shmem_init / start_pes     -> Boot / System.Run
//	shmem_my_pe / _num_pes     -> PE.MyPE / PE.NPEs
//	shmem_malloc / shmem_free  -> PE.Malloc / PE.Free
//	shmem_double_p / _g        -> PE.PutOneF64 / PE.GetOneF64
//	shmem_double_put / _get    -> PE.PutF64 / PE.GetF64
//	shmem_put64 / get64        -> PE.PutI64 / PE.GetI64
//	shmem_barrier_all          -> PE.BarrierAll
//	shmem_quiet                -> PE.Quiet
//	shmem_fence                -> PE.Fence
//	shmem_double_sum_to_all    -> PE.SumToAllF64
//	shmem_double_max_to_all    -> PE.MaxToAllF64
//	shmem_broadcast64          -> PE.BroadcastF64
//	shmem_atomic_add           -> PE.AtomicAddI64
//	shmem_atomic_fetch_add     -> PE.AtomicFetchAddI64
//	shmem_set_lock / clear/test-> PE.SetLock / ClearLock / TestLock
//	shmem_wait_until           -> PE.WaitUntilI64
//
// The reductions and the broadcast are Cluster Control's collectives
// (ReduceF64 with the model's combine function, BcastF64).
package shmem

import (
	"fmt"
	"runtime"
	"sync"

	"hamster"
)

// SymAddr addresses a slot in the symmetric heap: the same SymAddr names
// each PE's own instance of the allocation.
type SymAddr struct {
	idx int
	off uint64
}

// Offset returns the symmetric address advanced by n bytes.
func (a SymAddr) Offset(n uint64) SymAddr { return SymAddr{idx: a.idx, off: a.off + n} }

// Index returns the word index form (off/8) helper for array code.
func (a SymAddr) Index(i int) SymAddr { return a.Offset(uint64(i) * 8) }

// LockCount is the size of the static SHMEM lock table.
const LockCount = 64

// System is one booted SHMEM world.
type System struct {
	rt    *hamster.Runtime
	mu    sync.Mutex
	heaps []symHeap
	locks [LockCount]int
	atoms [64]int // lock shards serializing remote atomics
}

type symHeap struct {
	base  hamster.Addr
	chunk uint64 // per-PE instance size, page aligned
}

// Boot performs shmem_init / start_pes.
func Boot(cfg hamster.Config) (*System, error) {
	rt, err := hamster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("shmem: %w", err)
	}
	s := &System{rt: rt}
	e := rt.Env(0)
	for i := range s.locks {
		s.locks[i] = e.Sync.NewLock()
	}
	for i := range s.atoms {
		s.atoms[i] = e.Sync.NewLock()
	}
	return s, nil
}

// Shutdown stops the model.
func (s *System) Shutdown() { s.rt.Close() }

// Runtime exposes the underlying runtime.
func (s *System) Runtime() *hamster.Runtime { return s.rt }

// Run executes the application on every PE.
func (s *System) Run(main func(pe *PE)) {
	s.rt.Run(func(e *hamster.Env) {
		main(&PE{e: e, sys: s})
	})
}

// PE is one processing element's handle.
type PE struct {
	e   *hamster.Env
	sys *System
}

// MyPE returns shmem_my_pe.
func (p *PE) MyPE() int { return p.e.ID() }

// NPEs returns shmem_n_pes.
func (p *PE) NPEs() int { return p.e.N() }

// Malloc performs shmem_malloc: a collective symmetric-heap allocation.
// Every PE receives the same SymAddr, naming a per-PE instance placed in
// that PE's local memory.
func (p *PE) Malloc(bytes uint64) SymAddr {
	npes := uint64(p.e.N())
	chunk := (bytes + hamster.PageSize - 1) / hamster.PageSize * hamster.PageSize
	r, err := p.e.Mem.Alloc(chunk*npes, hamster.AllocOpts{
		Name: "shmem_malloc", Policy: hamster.Block, Collective: true,
	})
	if err != nil {
		panic(fmt.Sprintf("shmem: malloc: %v", err))
	}
	p.sys.mu.Lock()
	idx := -1
	for i, h := range p.sys.heaps {
		if h.base == r.Base {
			idx = i
			break
		}
	}
	if idx < 0 {
		p.sys.heaps = append(p.sys.heaps, symHeap{base: r.Base, chunk: chunk})
		idx = len(p.sys.heaps) - 1
	}
	p.sys.mu.Unlock()
	return SymAddr{idx: idx}
}

// Free performs shmem_free (collective).
func (p *PE) Free(a SymAddr) {
	p.sys.mu.Lock()
	h := p.sys.heaps[a.idx]
	p.sys.mu.Unlock()
	p.e.Sync.Barrier()
	if p.MyPE() == 0 {
		reg, ok := p.e.Mem.RegionOf(h.base)
		if !ok {
			panic("shmem: shmem_free of an unknown or freed allocation")
		}
		if err := p.e.Mem.Free(reg); err != nil {
			panic(fmt.Sprintf("shmem: shmem_free: %v", err))
		}
	}
	p.e.Sync.Barrier()
}

// translate resolves a symmetric address on a target PE.
func (p *PE) translate(a SymAddr, pe int) hamster.Addr {
	p.sys.mu.Lock()
	h := p.sys.heaps[a.idx]
	p.sys.mu.Unlock()
	if a.off >= h.chunk {
		panic(fmt.Sprintf("shmem: symmetric offset %d outside instance of %d bytes", a.off, h.chunk))
	}
	return h.base + hamster.Addr(uint64(pe)*h.chunk+a.off)
}

// PutOneF64 performs shmem_double_p: store one value into target PE's
// instance. One-sided: the target takes no action.
func (p *PE) PutOneF64(target SymAddr, v float64, pe int) {
	p.e.WriteF64(p.translate(target, pe), v)
}

// GetOneF64 performs shmem_double_g.
func (p *PE) GetOneF64(src SymAddr, pe int) float64 {
	return p.e.ReadF64(p.translate(src, pe))
}

// PutF64 performs shmem_double_put: a contiguous block store.
func (p *PE) PutF64(target SymAddr, src []float64, pe int) {
	base := p.translate(target, pe)
	for i, v := range src {
		p.e.WriteF64(base+hamster.Addr(8*i), v)
	}
}

// GetF64 performs shmem_double_get.
func (p *PE) GetF64(dst []float64, src SymAddr, pe int) {
	base := p.translate(src, pe)
	for i := range dst {
		dst[i] = p.e.ReadF64(base + hamster.Addr(8*i))
	}
}

// PutI64 performs shmem_put64 for one word.
func (p *PE) PutI64(target SymAddr, v int64, pe int) {
	p.e.WriteI64(p.translate(target, pe), v)
}

// GetI64 performs shmem_get64 for one word.
func (p *PE) GetI64(src SymAddr, pe int) int64 {
	return p.e.ReadI64(p.translate(src, pe))
}

// BarrierAll performs shmem_barrier_all: completes all outstanding puts
// and synchronizes all PEs. Consistency actions ride on the substrate
// barrier.
func (p *PE) BarrierAll() { p.e.Sync.Barrier() }

// Quiet performs shmem_quiet: waits for completion (and global
// visibility) of this PE's outstanding puts.
func (p *PE) Quiet() { p.e.Cons.Fence() }

// Fence performs shmem_fence: orders puts to each PE. The simulated
// substrates deliver puts in order already, so this is a cheap local
// ordering point (priced as a fence instruction).
func (p *PE) Fence() { p.e.Cons.Fence() }

// SumToAllF64 performs shmem_double_sum_to_all over all PEs.
func (p *PE) SumToAllF64(v float64) float64 {
	return p.reduce(v, func(a, b float64) float64 { return a + b })
}

// MaxToAllF64 performs shmem_double_max_to_all.
func (p *PE) MaxToAllF64(v float64) float64 {
	return p.reduce(v, func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	})
}

// MinToAllF64 performs shmem_double_min_to_all.
func (p *PE) MinToAllF64(v float64) float64 {
	return p.reduce(v, func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	})
}

// reduce combines one value per PE with combine and returns the result to
// every PE.
func (p *PE) reduce(v float64, combine func(a, b float64) float64) float64 {
	return p.e.Cluster.ReduceF64(0x5100, 0x5101, v, combine)
}

// BroadcastF64 performs shmem_broadcast64 for one value from root.
func (p *PE) BroadcastF64(root int, v float64) float64 {
	return p.e.Cluster.BcastF64(0x5102, root, v)
}

// AtomicAddI64 performs shmem_atomic_add on target PE's instance.
func (p *PE) AtomicAddI64(target SymAddr, delta int64, pe int) {
	p.AtomicFetchAddI64(target, delta, pe)
}

// AtomicFetchAddI64 performs shmem_atomic_fetch_add, returning the prior
// value. Remote atomics serialize through a lock shard (as SHMEM
// implementations without native network atomics do).
func (p *PE) AtomicFetchAddI64(target SymAddr, delta int64, pe int) int64 {
	addr := p.translate(target, pe)
	shard := p.sys.atoms[int(addr/8)%len(p.sys.atoms)]
	p.e.Sync.Lock(shard)
	old := p.e.ReadI64(addr)
	p.e.WriteI64(addr, old+delta)
	p.e.Sync.Unlock(shard)
	return old
}

// SetLock performs shmem_set_lock.
func (p *PE) SetLock(i int) { p.e.Sync.Lock(p.sys.locks[i%LockCount]) }

// ClearLock performs shmem_clear_lock.
func (p *PE) ClearLock(i int) { p.e.Sync.Unlock(p.sys.locks[i%LockCount]) }

// TestLock performs shmem_test_lock (true = lock obtained).
func (p *PE) TestLock(i int) bool { return p.e.Sync.TryLock(p.sys.locks[i%LockCount]) }

// Comparison operators for WaitUntilI64, mirroring SHMEM_CMP_*.
type Cmp int

// Comparison operators.
const (
	CmpEQ Cmp = iota
	CmpNE
	CmpGT
	CmpGE
	CmpLT
	CmpLE
)

// WaitUntilI64 performs shmem_wait_until on this PE's own instance:
// blocks until a remote put makes the condition true. Polls with
// consistency refreshes; each poll charges a sync-scale cost.
func (p *PE) WaitUntilI64(a SymAddr, cmp Cmp, value int64) {
	addr := p.translate(a, p.MyPE())
	for {
		v := p.e.ReadI64(addr)
		sat := false
		switch cmp {
		case CmpEQ:
			sat = v == value
		case CmpNE:
			sat = v != value
		case CmpGT:
			sat = v > value
		case CmpGE:
			sat = v >= value
		case CmpLT:
			sat = v < value
		case CmpLE:
			sat = v <= value
		}
		if sat {
			return
		}
		p.e.Cons.Fence() // discard stale copies so the next read refetches
		runtime.Gosched()
	}
}

// Compute charges local CPU work.
func (p *PE) Compute(flops uint64) { p.e.Compute(flops) }

// Env exposes the raw HAMSTER services.
func (p *PE) Env() *hamster.Env { return p.e }
