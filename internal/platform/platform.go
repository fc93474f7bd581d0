// Package platform defines the contract between the HAMSTER core and its
// base architectures (§3.1): a global memory abstraction, synchronization
// mechanisms, and information about the memory consistency model and its
// control mechanisms. Five substrates implement it — internal/smp
// (hardware shared memory), internal/hybriddsm (SCI-VM-like NUMA),
// internal/swdsm (JiaJia-like software DSM), internal/ivy (write-invalidate
// sequential consistency) and internal/multidsm (a page engine and the
// hybrid engine composed over one address space) — and the core
// deliberately integrates their native shapes rather than forcing a lowest
// common denominator.
//
// The ten data accessors share one access contract, and each substrate
// implements it in one read routine and one write routine parameterised by
// (accesses, words per access) on one page: a word access is 1×1, a byte
// span is cut at page boundaries and each piece is ONE access of
// 1+len/8 words, a block is cut the same way and each run of count words
// is count accesses of one word. Every access is counted once in
// Stats.Reads or Stats.Writes; every word pays CPU.AccessNs (and, on the
// hybrid DSM's uncached remote path, one SAN transfer, counted in
// RemoteReads/RemoteWrites); the CPU-cache model is touched once per
// routine call, which is exact because repeated touches of one page are
// idempotent; and the page is resolved — home looked up, fault taken, twin
// made, ownership acquired — once, exactly as the first word of the
// equivalent word loop would. TestAccessScriptIdentity and
// TestBlockWordEquivalence (internal/bench) hold every substrate to it.
//
// Every Substrate obeys the same concurrency and timing contract: node i
// is driven by one goroutine, all cross-node effects are internally
// synchronized, and every operation charges its cost to the calling
// node's virtual clock (internal/vclock) — including cycles stolen from
// other nodes for protocol processing, so per-node attribution always
// sums exactly to the clock.
package platform

import (
	"fmt"

	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// Kind enumerates the supported base architectures.
type Kind int

const (
	// SMP is a hardware-coherent shared memory multiprocessor (UMA).
	SMP Kind = iota
	// HybridDSM is a NUMA-like cluster with remote memory access (SCI-VM).
	HybridDSM
	// SWDSM is a Beowulf cluster running a software DSM (JiaJia-like).
	SWDSM
)

// String names the platform kind.
func (k Kind) String() string {
	switch k {
	case SMP:
		return "hardware-dsm(smp)"
	case HybridDSM:
		return "hybrid-dsm"
	case SWDSM:
		return "software-dsm"
	default:
		return "unknown"
	}
}

// ParseKind resolves a platform name to its Kind. It is the only name
// table: the configuration file's platform key, hamsterrun's -platform
// and the campaign harness's cluster labels all go through it.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "smp", "hardware-dsm":
		return SMP, nil
	case "hybrid-dsm", "hybriddsm", "sci-vm", "numa":
		return HybridDSM, nil
	case "software-dsm", "swdsm", "beowulf":
		return SWDSM, nil
	default:
		return 0, fmt.Errorf("unknown platform %q (valid: smp, hybrid-dsm, software-dsm)", name)
	}
}

// Caps describes what a substrate's memory system can do. The Memory
// Management module's capability test service (§4.2) exposes this to
// programming models.
type Caps struct {
	// HardwareCoherent means loads/stores are kept coherent without any
	// software consistency actions (SMP).
	HardwareCoherent bool
	// RemoteAccess means a node can read/write remote memory directly
	// without migrating or caching the page (hybrid DSM).
	RemoteAccess bool
	// PageCaching means remote pages are replicated locally and must be
	// invalidated by consistency actions.
	PageCaching bool
	// ConsistencyModel names the substrate's native model, e.g.
	// "processor", "scope", "release".
	ConsistencyModel string
	// Placement lists the supported distribution policies.
	Placement []memsim.Policy
}

// SupportsPolicy reports whether the substrate accepts a placement policy.
func (c Caps) SupportsPolicy(p memsim.Policy) bool {
	for _, q := range c.Placement {
		if q == p {
			return true
		}
	}
	return false
}

// Stats is a snapshot of substrate activity for one node, feeding the
// Performance Monitoring services (§4.3).
type Stats struct {
	Reads, Writes    uint64 // accessor operations, counted per word
	BlockReads       uint64 // bulk read operations (one per block call)
	BlockWrites      uint64 // bulk write operations (one per block call)
	PageFaults       uint64 // remote page fetches
	RemoteReads      uint64 // word-granularity remote reads (hybrid)
	RemoteWrites     uint64 // word-granularity remote writes (hybrid)
	TwinsCreated     uint64
	DiffsCreated     uint64
	DiffBytes        uint64
	Invalidations    uint64
	LockAcquires     uint64
	BarrierCrossings uint64
	Evictions        uint64
	CacheMisses      uint64 // CPU-cache model misses
	HomeMigrations   uint64 // pages whose home moved to this node
	ProtocolMsgs     uint64 // protocol messages this node originated (swdsm)
	DiffBatches      uint64 // aggregated diff-flush messages sent
	BatchedDiffs     uint64 // page diffs that traveled inside batches
	PrefetchRuns     uint64 // speculative multi-page fetch messages sent
	PrefetchPages    uint64 // pages installed by prefetch runs
	PrefetchHits     uint64 // prefetched pages later used by a real access
	PrefetchWaste    uint64 // prefetched pages dropped unused (mispredictions)
}

// Add returns the field-wise sum of two snapshots: a composed substrate's
// engines, or several nodes. TestStatsAddSumsEveryField fails when a
// counter is added to Stats and not here.
func (s Stats) Add(o Stats) Stats {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BlockReads += o.BlockReads
	s.BlockWrites += o.BlockWrites
	s.PageFaults += o.PageFaults
	s.RemoteReads += o.RemoteReads
	s.RemoteWrites += o.RemoteWrites
	s.TwinsCreated += o.TwinsCreated
	s.DiffsCreated += o.DiffsCreated
	s.DiffBytes += o.DiffBytes
	s.Invalidations += o.Invalidations
	s.LockAcquires += o.LockAcquires
	s.BarrierCrossings += o.BarrierCrossings
	s.Evictions += o.Evictions
	s.CacheMisses += o.CacheMisses
	s.HomeMigrations += o.HomeMigrations
	s.ProtocolMsgs += o.ProtocolMsgs
	s.DiffBatches += o.DiffBatches
	s.BatchedDiffs += o.BatchedDiffs
	s.PrefetchRuns += o.PrefetchRuns
	s.PrefetchPages += o.PrefetchPages
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchWaste += o.PrefetchWaste
	return s
}

// Substrate is one base architecture instance hosting a fixed-size cluster.
//
// Node indices run from 0 to Nodes()-1. All methods taking a node index are
// called from that node's goroutine unless noted otherwise. Memory accesses
// use global addresses from the substrate's Space.
type Substrate interface {
	// Kind identifies the architecture family.
	Kind() Kind
	// Nodes returns the number of execution contexts (cluster nodes, or
	// CPUs for the SMP substrate).
	Nodes() int
	// Clock returns a node's virtual clock.
	Clock(node int) *vclock.Clock
	// Space returns the global address space.
	Space() *memsim.Space
	// Caps describes the memory system.
	Caps() Caps
	// Params returns the cost model in use.
	Params() machine.Params

	// Alloc reserves global memory. Placement follows pol; fixedNode is
	// used by the Fixed policy. Alloc itself is not collective — the
	// Memory Management module adds collective semantics where a
	// programming model requires them.
	Alloc(size uint64, name string, pol memsim.Policy, fixedNode int) (memsim.Region, error)
	// Free releases a region.
	Free(r memsim.Region) error

	// ReadF64/WriteF64 and ReadI64/WriteI64 access one word. ReadBytes and
	// WriteBytes move arbitrary spans (may cross pages).
	ReadF64(node int, a memsim.Addr) float64
	WriteF64(node int, a memsim.Addr, v float64)
	ReadI64(node int, a memsim.Addr) int64
	WriteI64(node int, a memsim.Addr, v int64)
	ReadBytes(node int, a memsim.Addr, buf []byte)
	WriteBytes(node int, a memsim.Addr, data []byte)

	// Block accessors move contiguous word runs through the bulk fast
	// path: per maximal within-page run they perform ONE access check,
	// ONE frame lookup, and ONE batched virtual-time charge, but the
	// charged cost, the counters, and every consistency action are
	// word-for-word identical to the equivalent per-word loop — the fast
	// path amortizes how costs are PAID (real time), never what is
	// MODELED (virtual time). Addresses must be word-aligned; spans may
	// cross pages but must not span a synchronization point (the caller's
	// obligation, as with any unsynchronized access sequence).
	ReadF64Block(node int, a memsim.Addr, dst []float64)
	WriteF64Block(node int, a memsim.Addr, src []float64)
	ReadI64Block(node int, a memsim.Addr, dst []int64)
	WriteI64Block(node int, a memsim.Addr, src []int64)

	// NewLock creates a global lock and returns its id.
	NewLock() int
	// Acquire/Release take and drop a global lock, performing whatever
	// consistency actions the substrate's model attaches to them.
	Acquire(node, lock int)
	Release(node, lock int)
	// TryAcquire attempts Acquire without blocking; on success (true) the
	// lock is held and entry consistency actions were performed.
	TryAcquire(node, lock int) bool
	// Barrier blocks until all nodes arrive, performing global
	// consistency actions.
	Barrier(node int)
	// Fence enforces full local consistency: all local modifications are
	// made globally visible and stale local copies are discarded.
	Fence(node int)

	// Compute charges flops of CPU work to a node's clock.
	Compute(node int, flops uint64)

	// NodeStats snapshots a node's activity counters.
	NodeStats(node int) Stats
	// ResetStats zeroes a node's activity counters (the Stats snapshot
	// baseline). Virtual clocks are NOT touched: a clock's attribution
	// must always sum to its Now(), so time is never resettable piecemeal.
	ResetStats(node int)
	// SetRecorder attaches a protocol event recorder (nil detaches). The
	// substrate — and any messaging layers it owns — emits typed events
	// into it while it is enabled. Call before the run starts.
	SetRecorder(rec *perfmon.Recorder)
	// Close releases resources and unblocks any waiting nodes.
	Close()
}
