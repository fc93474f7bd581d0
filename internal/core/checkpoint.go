package core

// Checkpoint/restart wiring: the Cluster Control half of fault tolerance.
// The coordinator itself lives in internal/checkpoint; this file connects
// it to the runtime — construction from Config, the barrier hook, the
// model-level state registry, and NewResumed, which rebuilds a runtime
// from a materialized snapshot chain through the same construction path
// as a fresh boot (the unified-startup requirement of §3.3).

import (
	"fmt"
	"sort"

	"hamster/internal/amsg"
	"hamster/internal/checkpoint"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// resumeState carries the parts of a restored snapshot the program replays
// into rather than reads back: collective allocations and lock creations
// return the restored objects (in program order), and registered
// model-level state is handed to its restore callback at registration.
type resumeState struct {
	regions []memsim.Region
	locks   int
	app     [][][]byte // [node][registration order]
}

// attachCheckpointer builds the checkpoint coordinator for a runtime whose
// Config enables it. Validate admits that only on the scope-protocol
// software DSM, the one substrate with a page-granular capture surface.
func (rt *Runtime) attachCheckpointer() error {
	sub := rt.sub.(interface {
		checkpoint.Provider
		Layer() *amsg.Layer
	})
	p := rt.sub.Params()
	c, err := checkpoint.NewCoordinator(checkpoint.Options{
		Every:       rt.cfg.CheckpointEvery,
		Incremental: rt.cfg.CheckpointIncremental,
		Sink:        rt.cfg.CheckpointSink,
		PageCopyNs:  p.CPU.PageCopyNs,
		DiffScanNs:  p.CPU.DiffScanNs,
		AppState:    func(node int) [][]byte { return rt.envs[node].appState() },
	}, sub, sub.Layer(), substrateClocks(rt.sub), rt.perf)
	if err != nil {
		return err
	}
	rt.ckpt = c
	return nil
}

// Checkpoints returns the checkpoint coordinator, or nil when Config did
// not enable checkpointing.
func (rt *Runtime) Checkpoints() *checkpoint.Coordinator { return rt.ckpt }

// RegisterCheckpointable registers model-level state with the checkpoint
// subsystem: save is called at every capture (on this node's goroutine, at
// the quiescent cut), and on a resumed runtime restore is called once,
// right here, with the captured blob. Returns whether state was restored —
// the program's signal to skip already-completed work. Registration order
// must match between the original and resumed run (same binary, same
// calls), exactly like collective allocation. Registration itself costs no
// virtual time: with checkpointing disabled it is pure bookkeeping and
// modeled times are untouched.
func (e *Env) RegisterCheckpointable(name string, save func() []byte, restore func([]byte)) bool {
	if save == nil {
		panic(fmt.Sprintf("core: RegisterCheckpointable(%q) needs a save function", name))
	}
	idx := len(e.ckptSaves)
	e.ckptSaves = append(e.ckptSaves, save)
	if rs := e.rt.resume; rs != nil && e.id < len(rs.app) && idx < len(rs.app[e.id]) && restore != nil {
		restore(rs.app[e.id][idx])
		return true
	}
	return false
}

// appState collects the node's registered state blobs, in registration
// order (the coordinator's AppState hook).
func (e *Env) appState() [][]byte {
	if len(e.ckptSaves) == 0 {
		return nil
	}
	out := make([][]byte, len(e.ckptSaves))
	for i, f := range e.ckptSaves {
		out[i] = f()
	}
	return out
}

// NewResumed builds a runtime and rolls it forward to a materialized
// snapshot: address space and page table, home frames, protocol metadata,
// cached-page sets, locks, and per-node clocks are restored before any
// node goroutine exists, and the replay registries (collective
// allocations, lock creations, registered model state) are primed so the
// program's setup calls return the restored objects. rs == nil is a plain
// New — recovery with no checkpoint yet restarts from scratch through the
// identical path. The restore itself is charged as modeled memory time
// (one page copy per restored page) on top of the captured clocks.
func NewResumed(cfg Config, rs *checkpoint.RestoreSet) (*Runtime, error) {
	rt, err := New(cfg)
	if err != nil || rs == nil {
		return rt, err
	}
	prov, ok := rt.sub.(checkpoint.Provider)
	if !ok {
		rt.Close()
		return nil, fmt.Errorf("core: restore requires the software DSM substrate, not %v", rt.sub.Kind())
	}
	if err := prov.Space().Restore(rs.Space); err != nil {
		rt.Close()
		return nil, err
	}
	app := make([][][]byte, len(rs.Nodes))
	for node, nr := range rs.Nodes {
		pages := make([]memsim.PageID, 0, len(nr.Pages))
		for p := range nr.Pages {
			pages = append(pages, p)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		for _, p := range pages {
			prov.WritePage(node, p, nr.Pages[p])
		}
		prov.RestoreProtocolState(node, nr.Epoch)
		app[node] = nr.App
	}
	prov.EnsureLocks(rs.Locks)
	// Cache repopulation reads home frames, so it runs only after every
	// node's pages are installed.
	for node, nr := range rs.Nodes {
		prov.RestoreCached(node, nr.Cached)
	}
	pageCopy := rt.sub.Params().CPU.PageCopyNs
	for node, nr := range rs.Nodes {
		clk := rt.sub.Clock(node)
		clk.Restore(nr.Clock)
		clk.AdvanceCat(vclock.CatMemory, pageCopy*vclock.Duration(len(nr.Pages)))
		if rt.perf != nil && rt.perf.Enabled() {
			rt.perf.Record(node, perfmon.EvRestore, clk.Now(), 0, rs.Seq, uint64(len(nr.Pages)))
		}
	}
	rt.resume = &resumeState{
		regions: append([]memsim.Region(nil), rs.Space.Regions...),
		locks:   rs.Locks,
		app:     app,
	}
	if rt.ckpt != nil {
		rt.ckpt.Seed(rs)
	}
	return rt, nil
}
