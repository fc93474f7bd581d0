package core

import (
	"sync"
	"sync/atomic"

	"hamster/internal/conscheck"
	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

// Module identifies one management module for monitoring purposes.
type Module int

// The five HAMSTER management modules (§4.2).
const (
	ModMem Module = iota
	ModCons
	ModSync
	ModTask
	ModCluster
	moduleCount
)

// String names the module.
func (m Module) String() string {
	switch m {
	case ModMem:
		return "memory"
	case ModCons:
		return "consistency"
	case ModSync:
		return "synchronization"
	case ModTask:
		return "task"
	case ModCluster:
		return "cluster"
	default:
		return "unknown"
	}
}

// Env is one node's handle on the HAMSTER interface: the five service
// modules plus monitoring and raw global-memory access.
//
// Memory accesses are raw — once global memory is established, loads and
// stores hit the (simulated) hardware directly with no middleware on the
// path, exactly as in the real framework. Only service calls pay the thin
// per-call dispatch cost evaluated in Figure 2.
type Env struct {
	rt      *Runtime
	id      int
	serial  *sync.Mutex // non-nil in Threaded mode
	collIdx int

	calls  [moduleCount]atomic.Uint64
	epochs uint64 // barrier crossings observed by the sampler

	// ckptSaves holds the node's registered checkpointable-state readers,
	// in registration order. Touched only from this node's goroutine.
	ckptSaves []func() []byte

	// reportSections holds workload-registered report extensions, in
	// registration order. Touched only from this node's goroutine;
	// rendered at quiescence by Monitor.Report.
	reportSections []reportSection

	// The service modules.
	Mem     *MemMgr
	Cons    *ConsMgr
	Sync    *SyncMgr
	Task    *TaskMgr
	Cluster *ClusterCtl
	Mon     *Monitor
}

func newEnv(rt *Runtime, id int) *Env {
	e := &Env{rt: rt, id: id}
	if rt.cfg.Threaded {
		e.serial = &sync.Mutex{}
	}
	e.Mem = &MemMgr{e: e}
	e.Cons = &ConsMgr{e: e}
	e.Sync = &SyncMgr{e: e}
	e.Task = &TaskMgr{e: e}
	e.Cluster = &ClusterCtl{e: e}
	e.Mon = &Monitor{e: e}
	return e
}

// ID returns the node index.
func (e *Env) ID() int { return e.id }

// N returns the cluster size.
func (e *Env) N() int { return e.rt.sub.Nodes() }

// charge records one service call for module m and pays the thin-layer
// dispatch cost.
func (e *Env) charge(m Module) {
	e.calls[m].Add(1)
	e.rt.sub.Clock(e.id).Advance(e.rt.sub.Params().CPU.CallNs)
}

func (e *Env) lockSerial() {
	if e.serial != nil {
		e.serial.Lock()
	}
}

func (e *Env) unlockSerial() {
	if e.serial != nil {
		e.serial.Unlock()
	}
}

// ReadF64 reads one float64 from global memory.
func (e *Env) ReadF64(a memsim.Addr) float64 {
	e.traceAccess(conscheck.Read, a)
	e.lockSerial()
	v := e.rt.sub.ReadF64(e.id, a)
	e.unlockSerial()
	return v
}

// WriteF64 writes one float64 to global memory.
func (e *Env) WriteF64(a memsim.Addr, v float64) {
	e.traceAccess(conscheck.Write, a)
	e.lockSerial()
	e.rt.sub.WriteF64(e.id, a, v)
	e.unlockSerial()
}

// ReadI64 reads one int64 from global memory.
func (e *Env) ReadI64(a memsim.Addr) int64 {
	e.traceAccess(conscheck.Read, a)
	e.lockSerial()
	v := e.rt.sub.ReadI64(e.id, a)
	e.unlockSerial()
	return v
}

// WriteI64 writes one int64 to global memory.
func (e *Env) WriteI64(a memsim.Addr, v int64) {
	e.traceAccess(conscheck.Write, a)
	e.lockSerial()
	e.rt.sub.WriteI64(e.id, a, v)
	e.unlockSerial()
}

// ReadF64Block reads a contiguous float64 run through the substrate's
// bulk fast path. Modeled cost and consistency actions are identical to
// the per-word loop; only the real (simulator) cost is amortized.
func (e *Env) ReadF64Block(a memsim.Addr, dst []float64) {
	e.traceBlock(conscheck.Read, a, len(dst))
	e.lockSerial()
	e.rt.sub.ReadF64Block(e.id, a, dst)
	e.unlockSerial()
}

// WriteF64Block writes a contiguous float64 run through the bulk path.
func (e *Env) WriteF64Block(a memsim.Addr, src []float64) {
	e.traceBlock(conscheck.Write, a, len(src))
	e.lockSerial()
	e.rt.sub.WriteF64Block(e.id, a, src)
	e.unlockSerial()
}

// ReadI64Block reads a contiguous int64 run through the bulk path.
func (e *Env) ReadI64Block(a memsim.Addr, dst []int64) {
	e.traceBlock(conscheck.Read, a, len(dst))
	e.lockSerial()
	e.rt.sub.ReadI64Block(e.id, a, dst)
	e.unlockSerial()
}

// WriteI64Block writes a contiguous int64 run through the bulk path.
func (e *Env) WriteI64Block(a memsim.Addr, src []int64) {
	e.traceBlock(conscheck.Write, a, len(src))
	e.lockSerial()
	e.rt.sub.WriteI64Block(e.id, a, src)
	e.unlockSerial()
}

// Compute charges flops of local CPU work.
func (e *Env) Compute(flops uint64) {
	e.rt.sub.Compute(e.id, flops)
}

// Now returns this node's virtual time. Part of the platform-independent
// timing support of §4.4.
func (e *Env) Now() vclock.Time {
	return e.rt.sub.Clock(e.id).Now()
}

// Elapsed returns the virtual time since a previous Now.
func (e *Env) Elapsed(since vclock.Time) vclock.Duration {
	return vclock.Since(since, e.Now())
}

// Runtime returns the owning runtime.
func (e *Env) Runtime() *Runtime { return e.rt }

// reportSection is one workload-registered extension of the node's
// monitoring report.
type reportSection struct {
	title  string
	render func() string
}

// AddReportSection registers a workload-specific section appended to
// this node's Monitor.Report output. The render callback runs at
// quiescence (report time), so it may read state the workload is still
// mutating during the run. Call only from this node's goroutine, like
// checkpoint registration.
func (e *Env) AddReportSection(title string, render func() string) {
	e.reportSections = append(e.reportSections, reportSection{title: title, render: render})
}
