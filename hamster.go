// Package hamster is the public interface of the HAMSTER framework — a
// reproduction of "A Framework for Portable Shared Memory Programming"
// (Schulz & McKee, IPDPS 2003) as a Go library.
//
// HAMSTER decouples shared memory programming models from base
// architectures. One core middleware (the five management modules of §4.2:
// Memory, Consistency, Synchronization, Task, and Cluster Control
// management, plus per-module performance monitoring) runs on top of three
// very different platforms:
//
//   - an SMP with hardware cache coherence,
//   - a hybrid hardware/software DSM (SCI-VM-like NUMA cluster), and
//   - a pure software DSM (JiaJia-like Scope Consistency over Ethernet),
//
// and underneath ten programming models (package models/...): SPMD,
// SMP/SPMD, ANL macros, TreadMarks, HLRC, JiaJia, POSIX threads, Win32
// threads, the Cray shmem one-sided API, and an OpenMP-style fork-join
// extension. Applications written against any model run unmodified on any
// platform; only the Config changes.
//
// The platforms are simulated in-process: every node is a goroutine with a
// virtual clock, and memory, protocol, and network activity advance the
// clocks by calibrated costs (see internal/machine). Protocol state is
// real — a consistency bug yields wrong answers, not just wrong timings.
//
// Quickstart:
//
//	rt, err := hamster.New(hamster.Config{
//		Platform: hamster.SWDSM,
//		Nodes:    4,
//	})
//	if err != nil { ... }
//	defer rt.Close()
//	rt.Run(func(e *hamster.Env) {
//		r, _ := e.Mem.Alloc(4096, hamster.AllocOpts{Name: "acc", Collective: true})
//		lock := 0
//		if e.ID() == 0 {
//			lock = e.Sync.NewLock()
//		}
//		e.Sync.Barrier()
//		e.Sync.Lock(lock)
//		e.WriteF64(r.Base, e.ReadF64(r.Base)+1)
//		e.Sync.Unlock(lock)
//		e.Sync.Barrier()
//	})
package hamster

import (
	"hamster/internal/conscheck"
	"hamster/internal/consengine"
	"hamster/internal/core"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// Core types, re-exported for applications and programming models.
type (
	// Config selects and parameterizes the base architecture.
	Config = core.Config
	// Runtime is one HAMSTER instance.
	Runtime = core.Runtime
	// Env is one node's handle on the HAMSTER interface.
	Env = core.Env
	// AllocOpts parameterizes global allocation.
	AllocOpts = core.AllocOpts
	// Event is a sticky cluster-wide event signal.
	Event = core.Event
	// CondVar is a non-sticky condition variable.
	CondVar = core.CondVar
	// Semaphore is a cluster-wide counting semaphore.
	Semaphore = core.Semaphore
	// Task is a thread of a runtime: the initial thread, or a joinable
	// forwarded task.
	Task = core.Task
	// Module identifies a management module for monitoring.
	Module = core.Module
	// ConsModel names a memory consistency model.
	ConsModel = core.ConsModel
	// NodeParams describes a node for parameter queries.
	NodeParams = core.NodeParams
	// TraceRecorder collects execution traces for consistency checking.
	TraceRecorder = core.TraceRecorder
	// ConsistencyReport is the result of the formal consistency check
	// (vector-clock race detection + lockset discipline, §6).
	ConsistencyReport = conscheck.Report
	// ConsistencyRace is one detected data race.
	ConsistencyRace = conscheck.Race

	// Addr is a global memory address.
	Addr = memsim.Addr
	// Region is one global allocation.
	Region = memsim.Region
	// Policy is a memory distribution annotation.
	Policy = memsim.Policy
	// PlatformKind names a base architecture.
	PlatformKind = platform.Kind
	// Caps describes a substrate's memory system.
	Caps = platform.Caps
	// SubstrateStats are per-node substrate counters.
	SubstrateStats = platform.Stats
	// MachineParams is the cost model of the simulated testbed.
	MachineParams = machine.Params
	// MessagingMode selects the §3.3 messaging integration.
	MessagingMode = machine.MessagingMode
	// Aggregation configures the software DSM's protocol aggregation
	// layer (Config.SWDSMAggregation): batched diff flush, write-notice
	// piggybacking, adaptive prefetch. Zero value = off, bit-identical
	// to the baseline protocol.
	Aggregation = swdsm.Aggregation

	// Time is virtual nanoseconds since simulation start.
	Time = vclock.Time
	// Duration is a span of virtual time.
	Duration = vclock.Duration
)

// Base architectures.
const (
	// SMP is a hardware-coherent shared memory multiprocessor.
	SMP = platform.SMP
	// HybridDSM is an SCI-VM-like NUMA cluster.
	HybridDSM = platform.HybridDSM
	// SWDSM is a JiaJia-like software DSM over Ethernet.
	SWDSM = platform.SWDSM
)

// Distribution policies.
const (
	// Block splits a region into contiguous per-node chunks.
	Block = memsim.Block
	// Cyclic places consecutive pages on consecutive nodes.
	Cyclic = memsim.Cyclic
	// FirstTouch assigns a page's home at first access.
	FirstTouch = memsim.FirstTouch
	// Fixed places all pages on one node.
	Fixed = memsim.Fixed
)

// Messaging integration modes.
const (
	// Coalesced is HAMSTER's single shared messaging layer (§3.3).
	Coalesced = machine.Coalesced
	// Separate models unintegrated messaging stacks (native baseline).
	Separate = machine.Separate
)

// Management modules (monitoring keys).
const (
	ModMem     = core.ModMem
	ModCons    = core.ModCons
	ModSync    = core.ModSync
	ModTask    = core.ModTask
	ModCluster = core.ModCluster
)

// Consistency models.
const (
	Sequential = core.Sequential
	Processor  = core.Processor
	Release    = core.Release
	Scope      = core.Scope
	Entry      = core.Entry
)

// PageSize is the DSM page size in bytes.
const PageSize = memsim.PageSize

// WordSize is the accessor granularity in bytes.
const WordSize = memsim.WordSize

// New builds a runtime for the configured platform.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// EngineNames lists the selectable software-DSM consistency engines
// (Config.Engine): "scope" (the default home-based Scope Consistency
// protocol), "eager-rc" (eager Release Consistency), and "ivy"
// (write-invalidate with distributed dynamic ownership, sequential
// consistency).
func EngineNames() []string { return consengine.Names() }

// TopologyNames lists the simulated switch-fabric presets accepted by
// Config.Topology: "flat" (the all-to-all legacy network), "rack"
// (top-of-rack switches with oversubscribed uplinks), and "fattree"
// (three switch tiers with full bisection bandwidth).
func TopologyNames() []string { return simnet.TopologyNames() }

// DefaultParams returns the cost model calibrated to the paper's testbed
// (four dual-Xeon nodes, SCI + switched Fast Ethernet).
func DefaultParams() MachineParams { return machine.Default() }

// ClusterReport renders the monitoring summary of every node.
func ClusterReport(rt *Runtime) string { return core.ClusterReport(rt) }
