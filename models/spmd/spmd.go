// Package spmd implements HAMSTER's custom SPMD programming model: a
// user-friendly abstraction over the raw HAMSTER services (§5.2). It was
// the first model implemented in the original project and forms the basis
// for the DSM-style models (JiaJia, HLRC); its calls bundle broader
// functionality (reductions, broadcasts, timed sections), which in the
// original cost a larger implementation — the paper's Table 2 shows it
// near the top of the lines-per-call range. Here the reductions and
// broadcasts are Cluster Control's collectives (ReduceF64, BcastF64), so
// each is one call with the model's own tags and combine function.
//
// All allocation calls are collective with an implicit barrier, matching
// the SPMD/JiaJia/HLRC allocation style.
package spmd

import (
	"fmt"

	"hamster"
)

// System is one booted SPMD world.
type System struct {
	rt *hamster.Runtime
}

// Boot starts the SPMD system on the configured platform.
func Boot(cfg hamster.Config) (*System, error) {
	rt, err := hamster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("spmd: %w", err)
	}
	return &System{rt: rt}, nil
}

// Shutdown stops the system.
func (s *System) Shutdown() { s.rt.Close() }

// Runtime exposes the underlying runtime (monitoring, experiments).
func (s *System) Runtime() *hamster.Runtime { return s.rt }

// Run executes main once per process, SPMD style.
func (s *System) Run(main func(p *Proc)) {
	s.rt.Run(func(e *hamster.Env) {
		main(&Proc{e: e})
	})
}

// Proc is one SPMD process's handle.
type Proc struct {
	e *hamster.Env
}

// Me returns the process id.
func (p *Proc) Me() int { return p.e.ID() }

// NProcs returns the number of processes.
func (p *Proc) NProcs() int { return p.e.N() }

// AllocGlobal reserves shared memory, block-distributed, with an implicit
// barrier; every process receives the same region.
func (p *Proc) AllocGlobal(bytes uint64, name string) hamster.Region {
	r, err := p.e.Mem.Alloc(bytes, hamster.AllocOpts{
		Name: name, Policy: hamster.Block, Collective: true,
	})
	if err != nil {
		panic(fmt.Sprintf("spmd: AllocGlobal: %v", err))
	}
	return r
}

// AllocGlobalWith reserves shared memory with an explicit distribution
// annotation (still collective).
func (p *Proc) AllocGlobalWith(bytes uint64, name string, pol hamster.Policy, fixed int) hamster.Region {
	r, err := p.e.Mem.Alloc(bytes, hamster.AllocOpts{
		Name: name, Policy: pol, FixedNode: fixed, Collective: true,
	})
	if err != nil {
		panic(fmt.Sprintf("spmd: AllocGlobalWith: %v", err))
	}
	return r
}

// FreeGlobal releases a region (call from one process, then Barrier).
func (p *Proc) FreeGlobal(r hamster.Region) {
	if err := p.e.Mem.Free(r); err != nil {
		panic(fmt.Sprintf("spmd: FreeGlobal: %v", err))
	}
}

// Probe reports the memory subsystem's capabilities.
func (p *Proc) Probe() hamster.Caps { return p.e.Mem.Probe() }

// ReadF64 loads a float64 from global memory.
func (p *Proc) ReadF64(a hamster.Addr) float64 { return p.e.ReadF64(a) }

// WriteF64 stores a float64 to global memory.
func (p *Proc) WriteF64(a hamster.Addr, v float64) { p.e.WriteF64(a, v) }

// ReadI64 loads an int64 from global memory.
func (p *Proc) ReadI64(a hamster.Addr) int64 { return p.e.ReadI64(a) }

// WriteI64 stores an int64 to global memory.
func (p *Proc) WriteI64(a hamster.Addr, v int64) { p.e.WriteI64(a, v) }

// Compute charges local CPU work (flops).
func (p *Proc) Compute(flops uint64) { p.e.Compute(flops) }

// Barrier synchronizes all processes.
func (p *Proc) Barrier() { p.e.Sync.Barrier() }

// CreateLock makes a new global lock (call from process 0 before use).
func (p *Proc) CreateLock() int { return p.e.Sync.NewLock() }

// Lock acquires a global lock.
func (p *Proc) Lock(id int) { p.e.Sync.Lock(id) }

// Unlock releases a global lock.
func (p *Proc) Unlock(id int) { p.e.Sync.Unlock(id) }

// TryLock attempts a lock without blocking.
func (p *Proc) TryLock(id int) bool { return p.e.Sync.TryLock(id) }

// Reduction operators.
type ReduceOp int

// Supported reduction operators.
const (
	Sum ReduceOp = iota
	Max
	Min
)

// ReduceF64 performs a cluster-wide reduction; every process receives the
// result.
func (p *Proc) ReduceF64(val float64, op ReduceOp) float64 {
	return p.e.Cluster.ReduceF64(0x52aa, 0x52bb, val, func(acc, v float64) float64 {
		switch {
		case op == Sum:
			return acc + v
		case op == Max && v > acc, op == Min && v < acc:
			return v
		}
		return acc
	})
}

// BcastF64 broadcasts a value from root to all processes.
func (p *Proc) BcastF64(root int, val float64) float64 {
	return p.e.Cluster.BcastF64(0x52cc, root, val)
}

// Send transmits bytes to another process (external messaging, §3.3).
func (p *Proc) Send(to int, tag uint32, data []byte) { p.e.Cluster.Send(to, tag, data) }

// Recv receives bytes with a tag.
func (p *Proc) Recv(tag uint32) ([]byte, int) {
	payload, from, ok := p.e.Cluster.Recv(tag)
	if !ok {
		panic("spmd: recv interrupted")
	}
	return payload, from
}

// Time returns this process's virtual time (timing support, §4.4).
func (p *Proc) Time() hamster.Time { return p.e.Now() }

// Elapsed measures a timed section.
func (p *Proc) Elapsed(since hamster.Time) hamster.Duration { return p.e.Elapsed(since) }

// Stats snapshots the substrate counters for this process.
func (p *Proc) Stats() hamster.SubstrateStats { return p.e.Mon.Substrate() }

// ResetStats clears the per-module call counters.
func (p *Proc) ResetStats() { p.e.Mon.ResetAll() }

// Env grants access to the raw HAMSTER services (escape hatch for codes
// that need a service the SPMD abstraction does not surface).
func (p *Proc) Env() *hamster.Env { return p.e }

// CreateEvent makes a sticky cluster-wide event (the SPMD model exports
// most HAMSTER services in user-friendly form; events back run-time
// systems built on it).
func (p *Proc) CreateEvent() *hamster.Event { return p.e.Sync.NewEvent() }

// SetEvent fires an event.
func (p *Proc) SetEvent(ev *hamster.Event) { p.e.Sync.Signal(ev) }

// WaitEvent blocks until an event has fired.
func (p *Proc) WaitEvent(ev *hamster.Event) { p.e.Sync.Wait(ev) }

// Spawn forwards a task to another process's node and returns a joinable
// handle (the Task Management service surfaced in the SPMD model).
func (p *Proc) Spawn(node int, fn func(q *Proc) int64) (*hamster.Task, error) {
	return p.e.Task.SpawnOn(node, func(e *hamster.Env, _ *hamster.Task) int64 {
		return fn(&Proc{e: e})
	})
}

// Join waits for a spawned task and returns its exit value.
func (p *Proc) Join(t *hamster.Task) int64 { return p.e.Task.Join(t) }

// QueryNode returns another node's parameters (Cluster Control service).
func (p *Proc) QueryNode(id int) hamster.NodeParams { return p.e.Cluster.QueryNode(id) }
