// Package machine defines the cost model for the simulated platforms.
//
// The paper's testbed (§5.1) is a four-node Linux cluster of dual 450 MHz
// Intel Xeon SMPs with 512 MB per node, connected both by Dolphin SCI (a
// System Area Network with remote memory access) and by switched Fast
// Ethernet. All costs in this package are virtual nanoseconds charged to
// node clocks (see internal/vclock); they are calibrated to the published
// characteristics of that era's hardware:
//
//   - 450 MHz Xeon: ~2.2 ns/cycle, ~2 cycles per FLOP on this kernel mix.
//   - Switched Fast Ethernet + TCP/IP: ~55 µs one-way latency, 12.5 MB/s
//     wire bandwidth, tens of µs of per-message protocol-stack CPU time.
//   - Dolphin SCI: ~2.5 µs remote read per 8-byte word (PIO), sub-µs posted
//     remote writes, ~80 MB/s block transfer bandwidth.
//
// Absolute numbers are not the reproduction target — the shape of the
// results is — but starting from realistic constants makes the shapes
// emerge from the model rather than being baked in.
package machine

import "hamster/internal/vclock"

// PageSize is the size of a DSM page in bytes. JiaJia and the SCI-VM both
// operate on 4 KiB hardware pages.
const PageSize = 4096

// WordSize is the access granularity of the accessor API in bytes.
const WordSize = 8

// CPU describes per-node processor costs.
type CPU struct {
	// FlopNs is the cost of one floating-point operation.
	FlopNs vclock.Duration
	// AccessNs is the software cost of one accessor operation (the DSM
	// access check plus the cache-hit memory reference). Charged on every
	// read/write regardless of platform.
	AccessNs vclock.Duration
	// PageCopyNs is the cost of copying one 4 KiB page in local memory
	// (twin creation, diff application targets, etc.).
	PageCopyNs vclock.Duration
	// DiffScanNs is the cost of scanning one page word-by-word against its
	// twin to build a diff.
	DiffScanNs vclock.Duration
	// CallNs is the cost of one programming-model API call dispatching into
	// a HAMSTER service (the "thin layer" of §2). This is the per-call
	// overhead evaluated in Figure 2.
	CallNs vclock.Duration
}

// Link describes a message-passing interconnect.
type Link struct {
	// LatencyNs is the one-way wire+switch latency for a minimal message.
	LatencyNs vclock.Duration
	// NsPerByte is the inverse bandwidth for message payloads.
	NsPerByte vclock.Duration
	// SendSWNs / RecvSWNs are the per-message software (protocol stack)
	// costs at the sender and receiver.
	SendSWNs vclock.Duration
	RecvSWNs vclock.Duration
	// HandlerNs is the CPU cost of running an active-message handler at the
	// receiver (charged as stolen cycles when handled asynchronously).
	HandlerNs vclock.Duration
}

// MsgCost returns the end-to-end cost of moving a message of size bytes
// from a sender to a receiver over the link, excluding handler time.
func (l Link) MsgCost(size int) vclock.Duration {
	return l.SendSWNs + l.LatencyNs + vclock.Duration(size)*l.NsPerByte + l.RecvSWNs
}

// SAN describes a System Area Network with remote memory access (SCI-like).
type SAN struct {
	// RemoteReadNs is the cost of one uncached remote word read (PIO).
	RemoteReadNs vclock.Duration
	// RemoteWriteNs is the cost of one posted remote word write.
	RemoteWriteNs vclock.Duration
	// StoreBarrierNs is the cost of flushing the posted-write buffer.
	StoreBarrierNs vclock.Duration
	// PageFetchNs is the cost of block-transferring one 4 KiB page.
	PageFetchNs vclock.Duration
	// SyncMsgNs is the cost of one synchronization message (lock/barrier
	// token) over the SAN, end to end.
	SyncMsgNs vclock.Duration
}

// Bus describes a shared SMP memory bus.
type Bus struct {
	// DRAMAccessNs is the cost of a memory access that misses the cache.
	DRAMAccessNs vclock.Duration
	// ContentionPerCPU is the multiplier numerator: the effective DRAM cost
	// is DRAMAccessNs * (100 + ContentionPerCPU*(activeCPUs-1)) / 100.
	ContentionPerCPU vclock.Duration
	// CacheLines is the per-CPU cache size expressed in DSM pages for the
	// page-granularity locality model (512 KiB L2 / 4 KiB = 128).
	CachePages int
	// SyncNs is the cost of an SMP atomic synchronization operation.
	SyncNs vclock.Duration
}

// EffectiveDRAM returns the contention-scaled DRAM access cost when
// activeCPUs processors share the bus.
func (b Bus) EffectiveDRAM(activeCPUs int) vclock.Duration {
	if activeCPUs < 1 {
		activeCPUs = 1
	}
	scale := 100 + uint64(b.ContentionPerCPU)*uint64(activeCPUs-1)
	return vclock.Duration(uint64(b.DRAMAccessNs) * scale / 100)
}

// Params bundles the full cost model for one simulated testbed.
type Params struct {
	Name string
	CPU  CPU
	// Ethernet is the loosely-coupled interconnect used by the software
	// DSM and by the integrated messaging layer on Beowulf configurations.
	Ethernet Link
	// SAN is the SCI-like interconnect used by the hybrid DSM.
	SAN SAN
	// Bus is the SMP memory system.
	Bus Bus
}

// Default returns the cost model calibrated to the paper's testbed.
func Default() Params {
	return Params{
		Name: "4x dual Xeon 450MHz, SCI + switched Fast Ethernet",
		CPU: CPU{
			FlopNs:     4,     // ~2 cycles at 450 MHz
			AccessNs:   11,    // ~5 cycles software check + L1/L2 reference
			PageCopyNs: 8200,  // 4 KiB at ~500 MB/s memcpy
			DiffScanNs: 12300, // word-compare scan of a 4 KiB page
			CallNs:     4_000, // parameterized service dispatch + monitoring (~1800 cycles)
		},
		Ethernet: Link{
			LatencyNs: 55_000, // switched Fast Ethernet + IP stack
			NsPerByte: 80,     // 12.5 MB/s
			SendSWNs:  25_000, // TCP/IP send path on a 450 MHz CPU
			RecvSWNs:  25_000,
			HandlerNs: 15_000, // SIGIO handler + protocol work
		},
		SAN: SAN{
			RemoteReadNs:   2_500,  // PIO remote read, one word
			RemoteWriteNs:  300,    // posted remote store
			StoreBarrierNs: 2_000,  // drain posted-write FIFO
			PageFetchNs:    53_000, // 4 KiB at ~80 MB/s + setup
			SyncMsgNs:      5_000,  // remote-write-based sync token
		},
		Bus: Bus{
			DRAMAccessNs:     180, // ~80 cycles to DRAM
			ContentionPerCPU: 70,  // second CPU adds 70% to miss cost
			CachePages:       128, // 512 KiB L2
			SyncNs:           400, // locked bus transaction
		},
	}
}

// SANLink derives a message-passing link profile for user-level messaging
// carried over the SAN (remote-write message queues, as SCI message layers
// did). Used by the Cluster Control module on hybrid-DSM platforms.
func (p Params) SANLink() Link {
	return Link{
		LatencyNs: p.SAN.SyncMsgNs / 2,
		NsPerByte: 12, // ~80 MB/s block transfer
		SendSWNs:  1_000,
		RecvSWNs:  1_000,
		HandlerNs: 1_000,
	}
}

// BusLink derives a message-passing link profile for "messaging" between
// CPUs of one SMP: a shared-memory queue handoff.
func (p Params) BusLink() Link {
	return Link{
		LatencyNs: p.Bus.SyncNs,
		NsPerByte: 1,
		SendSWNs:  p.Bus.SyncNs / 2,
		RecvSWNs:  p.Bus.SyncNs / 2,
		HandlerNs: p.Bus.SyncNs / 2,
	}
}

// MessagingMode selects how the communication frameworks are integrated
// (§3.3): Coalesced is HAMSTER's single shared messaging layer; Separate
// models the unintegrated systems competing for the interconnect, each
// paying its own signaling overhead.
type MessagingMode int

const (
	// Coalesced: one messaging layer shared by DSM internals and user
	// messaging. This is the HAMSTER integration.
	Coalesced MessagingMode = iota
	// Separate: two uncoordinated messaging stacks. Each message pays an
	// extra demultiplexing/signaling penalty.
	Separate
)

// separateStackPenaltyNs is the extra per-message cost paid when two
// uncoordinated communication frameworks share the NIC (duplicate signal
// handling and socket demultiplexing).
const separateStackPenaltyNs = 2_000

// WithMessaging returns a copy of p with the Ethernet link adjusted for
// the chosen messaging integration mode.
func (p Params) WithMessaging(mode MessagingMode) Params {
	if mode == Separate {
		p.Ethernet.SendSWNs += separateStackPenaltyNs / 2
		p.Ethernet.RecvSWNs += separateStackPenaltyNs / 2
		p.Ethernet.HandlerNs += separateStackPenaltyNs / 3
	}
	return p
}

// PageCache is a direct-mapped, page-granularity cache model charged on
// local memory references. It exists to make *locality* visible to the
// cost model on every platform: a node sweeping a working set larger than
// its cache (or conflicting allocations) pays DRAM costs, a node iterating
// its own block does not. Direct mapping keeps the per-access cost of the
// simulation itself to a couple of nanoseconds.
//
// One PageCache models one CPU's cache; it must only be touched by that
// CPU's goroutine.
type PageCache struct {
	slots []uint64
}

// NewPageCache builds a cache with the given number of page slots.
func NewPageCache(pages int) *PageCache {
	if pages <= 0 {
		pages = 1
	}
	c := &PageCache{slots: make([]uint64, pages)}
	for i := range c.slots {
		c.slots[i] = ^uint64(0)
	}
	return c
}

// Touch references a page and reports whether it hit.
func (c *PageCache) Touch(page uint64) bool {
	idx := page % uint64(len(c.slots))
	if c.slots[idx] == page {
		return true
	}
	c.slots[idx] = page
	return false
}

// MissCost returns the DRAM cost of one modeled cache miss for a node
// with private memory (DSM cluster node).
func (b Bus) MissCost() vclock.Duration { return b.DRAMAccessNs }
