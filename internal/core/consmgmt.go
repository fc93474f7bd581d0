package core

import (
	"hamster/internal/conscheck"
	"hamster/internal/consengine"
)

// ConsModel names a memory consistency model supported by the consistency
// API (§4.5): "optimized implementations of all widely used models". It
// is the engine layer's model type; see consengine.Model for the
// strongest-first ordering contract.
type ConsModel = consengine.Model

// Supported consistency models, strongest first.
const (
	// Sequential: every access is globally ordered. The IVY engine
	// provides it natively; on relaxed engines it exists only through
	// explicit fencing.
	Sequential = consengine.Sequential
	// Processor: writes from one processor are seen in order (SMP
	// hardware's native model).
	Processor = consengine.Processor
	// Release: consistency actions tied to acquire/release pairs.
	Release = consengine.Release
	// Scope: release consistency restricted to the scope (lock) under
	// which modifications happened — JiaJia's native model.
	Scope = consengine.Scope
	// Entry: consistency restricted to data explicitly bound to the sync
	// object (provided by the scope machinery's per-lock notices).
	Entry = consengine.Entry
)

// ConsMgr is the Consistency Management module (§4.2, §4.5). In
// conjunction with the Synchronization module's constructs it recreates
// any relaxed consistency model a programming model needs.
type ConsMgr struct {
	e *Env
}

// Fence enforces full local consistency: all local modifications become
// globally visible and all stale local copies are dropped. This is the
// strongest (and most expensive) consistency action.
func (c *ConsMgr) Fence() {
	c.e.charge(ModCons)
	c.e.traceSync(conscheck.Fence, 0)
	c.e.rt.sub.Fence(c.e.id)
}
