// Package core implements the HAMSTER middleware: the five orthogonal
// management modules (§4.2) — Memory, Consistency, Synchronization, Task,
// and Cluster Control management — plus per-module performance monitoring
// (§4.3) and platform-independent timing, all on top of an exchangeable
// base architecture (package platform).
//
// Programming models (package models/...) are thin layers over these
// services: most API calls map directly onto one parameterized service
// call, which is what keeps the per-model implementation effort of Table 2
// in the tens of lines per call.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hamster/internal/amsg"
	"hamster/internal/checkpoint"
	"hamster/internal/consengine"
	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// Config is the one description of a cluster: the "configuration file" of
// §5.4. Changing only this between runs retargets identical application
// binaries across platforms. The node configuration file
// (internal/cluster), hamsterrun's flags and the campaign harness's
// clusters (internal/bench) all produce one, Validate is the only code
// that decides whether it can be built, and NewSubstrate the only code
// that builds it. Every field is set by a committed measurement
// (TestSurfaceEvidence, internal/bench).
type Config struct {
	// Platform picks the base architecture.
	Platform platform.Kind
	// Nodes is the cluster size (or CPU count on SMP).
	Nodes int
	// Params is the cost model; zero value means machine.Default().
	Params machine.Params
	// Messaging selects the §3.3 integration mode. Coalesced (default) is
	// HAMSTER's single shared messaging layer; Separate models
	// unintegrated stacks competing for the NIC and exists for the
	// native-execution baseline and the messaging ablation.
	Messaging machine.MessagingMode
	// Threaded enables same-node task concurrency (thread programming
	// models): substrate access is then serialized per node, modeling
	// threads time-sharing one CPU.
	Threaded bool
	// ParallelNodes gates queued-message delivery on a conservative
	// lookahead engine (vclock.Engine over the user-messaging network):
	// a node consumes a message only once no peer can still produce an
	// earlier virtual arrival, making delivery order a pure function of
	// virtual time — Chandy–Misra–Bryant-style conservative parallel
	// execution — instead of relying on receive-filter discipline. Off,
	// the free-running scheduler is the sequential reference path; the
	// two are pinned identical on virtual times, checksums, stats, and
	// perfmon streams by the bench identity gates. Incompatible with
	// Threaded: co-located tasks can send mid-receive, which breaks the
	// engine's blocked-receiver bound.
	ParallelNodes bool

	// Engine selects the software DSM's consistency engine: "" or "scope"
	// (the default home-based scope-consistency protocol), "eager-rc"
	// (eager release consistency on the same twin/diff machinery), or
	// "ivy" (write-invalidate with distributed dynamic ownership —
	// sequentially consistent). Software DSM only. The IVY engine has no
	// twins, diffs, or barrier epochs, so checkpointing and protocol
	// aggregation are rejected with it rather than silently ignored.
	Engine string
	// Topology names the simulated switch fabric: "" or "flat" (the
	// all-to-all legacy network, bit-identical to the pre-topology
	// fabric), "rack" (top-of-rack switches, 4:1 oversubscribed uplinks),
	// or "fattree" (three switch tiers, full bisection bandwidth). See
	// simnet.TopologyPreset. Software DSM only — the SMP bus and the
	// hybrid SAN have no switch fabric to shape. Above hsync.Threshold
	// nodes the DSM also switches to tree barriers and distributed lock
	// queues aligned with the topology.
	Topology string

	// SWDSMAggregation configures the software DSM's protocol aggregation
	// layer (batched diff flush, notice piggybacking, adaptive prefetch).
	// The zero value is off and bit-identical to the baseline protocol.
	SWDSMAggregation swdsm.Aggregation

	// CheckpointEvery enables coordinated checkpointing: a consistent
	// snapshot at every Nth framework barrier (0 = off — no hook is
	// installed and no cost of any kind exists). Software DSM only.
	CheckpointEvery int
	// CheckpointIncremental switches captures after the first to
	// dirty-page deltas against the previous epoch.
	CheckpointIncremental bool
	// CheckpointSink overrides the snapshot store (nil = an in-memory
	// ring of the last checkpoint.DefaultKeep epochs).
	CheckpointSink checkpoint.Sink
}

// Validate reports why c describes no cluster the framework can build:
// the first offending field, and the property of the platform or protocol
// that rules the value out. Nothing is constructed. New and NewSubstrate
// call it first, and a front end that wants the error before it boots
// anything (hamsterrun) calls it directly — no other code decides which
// combinations exist.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("core: Config.Nodes must be at least 1, got %d", c.Nodes)
	}
	if c.Platform != platform.SMP && c.Platform != platform.HybridDSM && c.Platform != platform.SWDSM {
		return fmt.Errorf("core: Config.Platform %d names no base architecture", int(c.Platform))
	}
	engine, err := consengine.NormalizeName(c.Engine)
	if err != nil {
		return fmt.Errorf("core: Config.Engine: %w", err)
	}
	topo, err := simnet.TopologyPreset(c.Topology)
	if err != nil {
		return fmt.Errorf("core: Config.Topology: %w", err)
	}
	dsm, onIVY := c.Platform == platform.SWDSM, engine == consengine.IVYName
	switch {
	case c.Engine != "" && !dsm:
		return fmt.Errorf("core: Config.Engine %q selects a software DSM consistency engine; platform %v has a fixed hardware protocol", c.Engine, c.Platform)
	case !topo.IsFlat() && !dsm:
		return fmt.Errorf("core: Config.Topology %q shapes the software DSM's switched interconnect; platform %v has no switch fabric (the SMP bus and the hybrid SAN are not topology-aware)", c.Topology, c.Platform)
	case c.SWDSMAggregation.Enabled() && !dsm:
		return fmt.Errorf("core: Config.SWDSMAggregation batches the software DSM's diff and write-notice messages; platform %v keeps memory coherent in hardware and sends none", c.Platform)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("core: Config.CheckpointEvery must be >= 0 (barriers between snapshots, 0 = off), got %d", c.CheckpointEvery)
	case c.CheckpointEvery > 0 && !dsm:
		return fmt.Errorf("core: Config.CheckpointEvery=%d: checkpointing needs the software DSM, whose home frames, twins and write notices are the state a snapshot captures; platform %v exposes no page-granular capture surface", c.CheckpointEvery, c.Platform)
	case c.CheckpointEvery > 0 && onIVY:
		return fmt.Errorf("core: Config.CheckpointEvery=%d: the ivy engine does not support checkpointing: snapshots hook the scope protocol's barrier epochs, and ivy keeps ownership and copysets instead of home frames", c.CheckpointEvery)
	case c.SWDSMAggregation.Enabled() && onIVY:
		return fmt.Errorf("core: Config.SWDSMAggregation: the ivy engine does not support protocol aggregation: batched diff flush and write-notice piggybacking are scope-protocol machinery, and ivy sends neither diffs nor notices")
	case c.ParallelNodes && c.Threaded:
		return fmt.Errorf("core: Config.ParallelNodes is incompatible with Config.Threaded: co-located tasks can send while their node blocks in a receive, which breaks the conservative engine's blocked-receiver horizon bound")
	}
	return nil
}

// Runtime is one HAMSTER instance: a configured base architecture plus the
// service modules, one Env per node.
type Runtime struct {
	cfg  Config
	sub  platform.Substrate
	envs []*Env
	msgs *simnet.Network // user-level messaging (Cluster Control module)
	am   *amsg.Layer     // the substrate's active-message layer; nil when it has none

	collMu     sync.Mutex
	collAllocs []collResult

	rawMu    sync.Mutex
	rawLocks []*vclock.VLock

	tasks taskCounts
	live  liveSet // the node and task goroutines still running

	failMu  sync.Mutex
	failure any // the first panic of any node or task goroutine

	tracer  tracerSlot
	sampler samplerSlot

	perf *perfmon.Recorder // protocol event recorder, attached but disabled

	ckpt          *checkpoint.Coordinator // nil unless Config enables it
	resume        *resumeState            // nil unless built by NewResumed
	resumeLockIdx atomic.Uint64           // NewLock replay cursor on resume
}

type collResult struct {
	region memsim.Region
	err    error
}

// NewSubstrate validates cfg, then selects and constructs the base
// architecture it describes — bare, without the core services. It is the
// one place a Config becomes a substrate: New wraps the services around
// its result, and the campaign harness (bench.Cluster.build) runs kernels
// directly on it. The software DSM engines own their active-message
// layer; the default engine gets the exact configuration the pre-engine
// code built (gated by TestEngineDefaultIdentity).
func NewSubstrate(cfg Config) (platform.Substrate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Params
	if params.Name == "" {
		params = machine.Default()
	}
	switch cfg.Platform {
	case platform.SMP:
		return built(smp.New(smp.Config{CPUs: cfg.Nodes, Params: params}))
	case platform.HybridDSM:
		return built(hybriddsm.New(hybriddsm.Config{Nodes: cfg.Nodes, Params: params}))
	}
	params = params.WithMessaging(cfg.Messaging)
	topo, _ := simnet.TopologyPreset(cfg.Topology) // Validate accepted the name
	if cfg.Engine == consengine.IVYName {
		return built(ivy.New(ivy.Config{Nodes: cfg.Nodes, Params: params, Topology: topo}))
	}
	sc := swdsm.Config{Nodes: cfg.Nodes, Params: params, Topology: topo, Aggregation: cfg.SWDSMAggregation}
	if cfg.Engine == consengine.EagerRCName {
		sc.Protocol = swdsm.EagerRC
	}
	return built(swdsm.New(sc))
}

// built widens a constructor's result to the interface without wrapping a
// nil pointer in a non-nil Substrate on failure.
func built[S platform.Substrate](sub S, err error) (platform.Substrate, error) {
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// New builds a runtime: the substrate cfg describes with the core
// services around it.
func New(cfg Config) (*Runtime, error) {
	sub, err := NewSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, sub: sub, am: layerOf(sub)}
	p := sub.Params()
	switch {
	case cfg.Platform == platform.SMP:
		rt.msgs = simnet.New(p.BusLink(), substrateClocks(sub))
	case cfg.Platform == platform.HybridDSM:
		rt.msgs = simnet.New(p.SANLink(), substrateClocks(sub))
	case cfg.Messaging == machine.Coalesced:
		// One layer carries the DSM protocol AND user messaging.
		rt.msgs = rt.am.Network()
	default:
		rt.msgs = simnet.NewTopo(p.Ethernet, substrateClocks(sub), rt.am.Network().Topology())
	}
	if cfg.ParallelNodes {
		// Installed before any node goroutine exists, so the gate pointer
		// is published by goroutine creation. Only the user-messaging
		// network carries queued traffic — active-message calls execute
		// handlers synchronously on the caller's goroutine and charge the
		// target with commutative stolen cycles, which need no ordering
		// (see DESIGN §5i) — so that is the fabric the engine gates.
		rt.msgs.EnableGate()
	}
	rt.attachRecorder()
	if cfg.CheckpointEvery > 0 {
		if err := rt.attachCheckpointer(); err != nil {
			rt.Close()
			return nil, err
		}
	}
	rt.buildEnvs()
	return rt, nil
}

// layerOf extracts a substrate's active-message layer, when it has one
// (the software DSM engines).
func layerOf(sub platform.Substrate) *amsg.Layer {
	if ld, ok := sub.(interface{ Layer() *amsg.Layer }); ok {
		return ld.Layer()
	}
	return nil
}

// attachRecorder creates the (initially disabled) protocol event recorder
// and distributes it to the substrate and the user-messaging network. It
// costs only the per-node ring headers: the event rings are allocated by
// the first Enable, so an untraced run never pays for them. Attachment
// happens before any node goroutine starts, so the recorder pointers are
// published by goroutine creation and the hot-path check is a single
// atomic load of the enable flag.
func (rt *Runtime) attachRecorder() {
	rt.perf = perfmon.New(rt.sub.Nodes(), 0)
	rt.sub.SetRecorder(rt.perf)
	rt.msgs.SetRecorder(rt.perf)
}

// Perf returns the runtime's protocol event recorder. It is attached to
// every layer at construction but disabled and without event rings; call
// Enable before the run to allocate them and start collecting events, and
// read them out once the run is quiescent.
func (rt *Runtime) Perf() *perfmon.Recorder { return rt.perf }

// Network returns the user-messaging network. With coalesced messaging on
// software DSM it is the same network the DSM protocol rides.
func (rt *Runtime) Network() *simnet.Network { return rt.msgs }

// AMsg returns the substrate's active-message layer, or nil for
// substrates (hybrid DSM, SMP) that communicate through hardware paths
// instead.
func (rt *Runtime) AMsg() *amsg.Layer { return rt.am }

// SetFaults installs a fault plan on every interconnect of this runtime:
// the user-messaging network and, when the substrate has a separate
// active-message network, that one too. An all-zero plan restores
// fault-free operation.
func (rt *Runtime) SetFaults(p simnet.FaultPlan) {
	rt.msgs.SetFaults(p)
	if rt.am != nil && rt.am.Network() != rt.msgs {
		rt.am.Network().SetFaults(p)
	}
}

// TimeBreakdowns snapshots every node's virtual-time attribution, indexed
// by node. Each breakdown's Total() equals the node's clock exactly.
func (rt *Runtime) TimeBreakdowns() []vclock.Breakdown {
	out := make([]vclock.Breakdown, rt.sub.Nodes())
	for i := range out {
		out[i] = rt.sub.Clock(i).Breakdown()
	}
	return out
}

func substrateClocks(sub platform.Substrate) []*vclock.Clock {
	clocks := make([]*vclock.Clock, sub.Nodes())
	for i := range clocks {
		clocks[i] = sub.Clock(i)
	}
	return clocks
}

func (rt *Runtime) buildEnvs() {
	rt.envs = make([]*Env, rt.sub.Nodes())
	for i := range rt.envs {
		rt.envs[i] = newEnv(rt, i)
	}
}

// Nodes returns the cluster size.
func (rt *Runtime) Nodes() int { return rt.sub.Nodes() }

// Substrate exposes the base architecture (monitoring, experiments).
func (rt *Runtime) Substrate() platform.Substrate { return rt.sub }

// Env returns the service handle for one node.
func (rt *Runtime) Env(node int) *Env { return rt.envs[node] }

// Run executes fn as an SPMD program: one task per node, joined on return.
// This is HAMSTER's inherent task model (§4.4); richer task structures are
// built with the Task Management module. A panic on any node (such as
// jia_error aborting the application) is re-raised on the caller after the
// other nodes finish.
func (rt *Runtime) Run(fn func(e *Env)) {
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, e := range rt.envs {
		// A fresh run revives nodes a previous Run retired from the
		// conservative gate's horizon (no-op when ungated).
		rt.msgs.SetNodeRetired(toNodeID(e.id), false)
	}
	wg.Add(len(rt.envs))
	for _, e := range rt.envs {
		rt.goNode(e.id, 0, func() { fn(e) }, func(failure any) {
			// Either way this node will never send again, so it stops
			// bounding peers' delivery horizons (no-op when ungated).
			rt.msgs.SetNodeRetired(toNodeID(e.id), true)
			if failure != nil {
				failed.Store(true)
			}
			wg.Done()
		})
	}
	wg.Wait()
	if failed.Load() {
		rt.failMu.Lock()
		defer rt.failMu.Unlock()
		panic(rt.failure)
	}
}

// goNode runs fn on a new goroutine for node, as task number task (0 for
// a node of Run): the one place the runtime starts a node or task
// goroutine, so the one place Close's leak check learns of them. A panic
// in fn fails the runtime; exit runs last either way, with the panic or
// nil, after the goroutine has left the live set.
func (rt *Runtime) goNode(node int, task int64, fn func(), exit func(failure any)) {
	id := goroutineID{task: task, node: node}
	rt.live.enter(id)
	go func() {
		var failure any
		defer func() {
			rt.live.leave(id)
			exit(failure)
		}()
		defer func() {
			if failure = recover(); failure != nil {
				rt.fail(node, failure)
			}
		}()
		fn()
	}()
}

// fail unblocks the peers of a node or task that panicked with r. The
// first failure is kept for Run to re-raise and poisons the cluster's
// clocks, so every virtual-time wait, now or later, panics naming it
// instead of waiting for a node that will never arrive; every failure
// closes the network to wake blocked receivers and retry loops. Peers
// woken this way panic in turn and land back here.
func (rt *Runtime) fail(node int, r any) {
	rt.failMu.Lock()
	if rt.failure == nil {
		rt.failure = r
		rt.sub.Clock(node).Poison(fmt.Sprintf("node %d failed: %v", node, r))
	}
	rt.failMu.Unlock()
	rt.msgs.Close()
}

// Close shuts the runtime down, unblocking any waiting receivers, and
// hands the substrate's page buffers back for the next runtime to reuse.
// That is safe only once no node or task goroutine can touch them. A
// healthy runtime must be quiescent: Close panics naming a goroutine that
// is still running (an unjoined task, say). On a failed runtime Close,
// which may be running in a deferred call while the failure unwinds,
// waits for them instead: the failure poisoned every wait and closed the
// network, so each survivor panics out of whatever it was blocked in.
func (rt *Runtime) Close() {
	rt.msgs.Close()
	rt.failMu.Lock()
	failed := rt.failure != nil
	rt.failMu.Unlock()
	rt.live.quiesce(failed)
	rt.sub.Close()
}

// MaxTime returns the largest per-node virtual time — the wall-clock
// equivalent of an SPMD run.
func (rt *Runtime) MaxTime() vclock.Time {
	return vclock.MaxAll(substrateClocks(rt.sub))
}

// collectiveAlloc implements SPMD-wide allocation: every node calls it with
// identical arguments in the same program order; node 0 allocates, a
// barrier publishes, everyone returns the same region. On a resumed
// runtime the first allocations replay instead: the restored address space
// already holds the regions, so the call returns the matching restored
// region (validated against the program's arguments) rather than
// allocating anew.
func (rt *Runtime) collectiveAlloc(e *Env, size uint64, name string, pol memsim.Policy, fixed int) (memsim.Region, error) {
	if e.id == 0 {
		var res collResult
		if rs := rt.resume; rs != nil && e.collIdx < len(rs.regions) {
			r := rs.regions[e.collIdx]
			if r.Name != name || r.Size < size {
				res.err = fmt.Errorf("core: resumed allocation %d is %q (%d bytes) but the program asked for %q (%d bytes) — snapshot does not match this binary",
					e.collIdx, r.Name, r.Size, name, size)
			} else {
				res.region = r
			}
		} else {
			res.region, res.err = rt.sub.Alloc(size, name, pol, fixed)
		}
		rt.collMu.Lock()
		rt.collAllocs = append(rt.collAllocs, res)
		rt.collMu.Unlock()
	}
	rt.sub.Barrier(e.id)
	rt.collMu.Lock()
	res := rt.collAllocs[e.collIdx]
	rt.collMu.Unlock()
	e.collIdx++
	return res.region, res.err
}
