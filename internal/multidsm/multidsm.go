// Package multidsm implements the paper's Future Research proposal (§6):
// "HAMSTER's ability to concurrently support multiple DSM systems within
// one framework … makes it possible to combine several different DSM
// mechanisms within the execution of a single application, resulting in
// custom-tailored, shared memory solutions".
//
// A multidsm cluster hosts two DSM engines over ONE shared address space
// and ONE set of node clocks — the testbed really did have both
// interconnects cabled up (§5.1: SCI and switched Fast Ethernet):
//
//   - the software-DSM engine (page caching with twins/diffs over the
//     Ethernet link): amortizes dense reads at page granularity,
//   - the hybrid-DSM engine (word-granular remote access over the SAN):
//     cheap sparse/posted writes, no protocol on the data path.
//
// Every allocation is routed to one engine by its distribution-policy
// annotation (configurable); accesses dispatch per page. Synchronization
// is unified: one lock/barrier layer (over the SAN, the faster medium)
// performs both engines' consistency actions — flush-and-collect write
// notices on release, invalidation on acquire — so the composition is a
// correct relaxed-consistency system, not two systems glued side by side.
//
// The paper predicts "individual system performances are dependent upon
// application characteristics"; the mixed-workload ablation in
// internal/bench confirms it: a read-streaming region does better on the
// page-based engine while a scattered-write region does better on the
// hardware path, and routing each to its engine beats either pure system.
package multidsm

import (
	"sync"

	"hamster/internal/consengine"
	"hamster/internal/hsync"
	"hamster/internal/hybriddsm"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/swdsm"
)

// Engine names one of the composed DSM mechanisms.
type Engine int

// The composable engines.
const (
	// SW is the page-based software DSM over Ethernet.
	SW Engine = iota
	// Hybrid is the word-granular hardware-access DSM over the SAN.
	Hybrid
)

// String names the engine.
func (e Engine) String() string {
	if e == SW {
		return "sw"
	}
	return "hybrid"
}

// Config parameterizes a composed cluster.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Params is the cost model; zero value means machine.Default().
	Params machine.Params
	// DefaultEngine serves allocations whose policy has no route.
	DefaultEngine Engine
	// PolicyRoutes maps distribution annotations to engines, letting the
	// application's existing placement annotations select mechanisms.
	PolicyRoutes map[memsim.Policy]Engine
	// HybridCacheThreshold configures the hybrid engine's read caching
	// (negative disables it — the raw SCI-VM configuration).
	HybridCacheThreshold int
}

// DSM is one composed cluster. Synchronization is the embedded manager
// over a SAN wire, driving both engines' consistency actions through one
// hsync.Engine (see both) — the arrangement every substrate now uses with
// its single engine.
type DSM struct {
	platform.Base // Alloc and Free are this type's own: they route
	*hsync.Manager
	sw  *swdsm.DSM // the page-based engine
	hy  *hybriddsm.DSM
	cfg Config

	routeMu sync.RWMutex
	routes  map[memsim.PageID]Engine
}

// New builds a composed cluster: one address space, one clock per node,
// two engines.
func New(cfg Config) (*DSM, error) {
	base, err := platform.NewBase("multidsm", cfg.Nodes, cfg.Params, nil, nil)
	if err != nil {
		return nil, err
	}
	sw, err := swdsm.New(swdsm.Config{Nodes: cfg.Nodes, Params: base.Cost, Space: base.Mem, Clocks: base.Clocks})
	if err != nil {
		return nil, err
	}
	hy, err := hybriddsm.New(hybriddsm.Config{
		Nodes: cfg.Nodes, Params: base.Cost, Space: base.Mem, Clocks: base.Clocks,
		CacheThreshold: cfg.HybridCacheThreshold,
	})
	if err != nil {
		return nil, err
	}
	d := &DSM{Base: base, sw: sw, hy: hy, cfg: cfg, routes: make(map[memsim.PageID]Engine)}
	wire := hsync.AtomicWire(base.Cost.SAN.SyncMsgNs, base.Cost.SAN.SyncMsgNs)
	wire.Hier = true
	d.Manager = hsync.NewManager(hsync.Config{
		Name: "multidsm", Clocks: base.Clocks, Wire: wire,
		Engine: both{sw, hy},
	})
	return d, nil
}

// Kind implements platform.Substrate. The composition presents itself as
// a hybrid system (it requires the SAN for its unified synchronization).
func (d *DSM) Kind() platform.Kind { return platform.HybridDSM }

// Caps implements platform.Substrate.
func (d *DSM) Caps() platform.Caps {
	return platform.Caps{
		RemoteAccess:     true,
		PageCaching:      true,
		ConsistencyModel: d.DeclaredModel().String(),
		Placement:        platform.Policies(),
	}
}

// DeclaredModel implements consengine.Engine. The composition is only as
// strong as the weakest engine an allocation can reach: the hybrid path is
// Release under the unified sync layer, and the page engine's Scope is
// weaker, so Scope governs whatever the routes.
func (d *DSM) DeclaredModel() consengine.Model { return d.sw.DeclaredModel() }

// engineFor picks the engine serving a policy.
func (d *DSM) engineFor(pol memsim.Policy) Engine {
	if e, ok := d.cfg.PolicyRoutes[pol]; ok {
		return e
	}
	return d.cfg.DefaultEngine
}

// Alloc implements platform.Substrate: the region is placed in the shared
// space and its pages routed to the policy's engine.
func (d *DSM) Alloc(size uint64, name string, pol memsim.Policy, fixedNode int) (memsim.Region, error) {
	r, err := d.Mem.Alloc(size, name, pol, fixedNode)
	if err != nil {
		return r, err
	}
	eng := d.engineFor(pol)
	d.routeMu.Lock()
	for _, p := range memsim.PagesSpanned(r.Base, r.Size) {
		d.routes[p] = eng
	}
	d.routeMu.Unlock()
	return r, nil
}

// Free implements platform.Substrate.
func (d *DSM) Free(r memsim.Region) error {
	d.routeMu.Lock()
	for _, p := range memsim.PagesSpanned(r.Base, r.Size) {
		delete(d.routes, p)
	}
	d.routeMu.Unlock()
	return d.Mem.Free(r)
}

func (d *DSM) engine(a memsim.Addr) platform.Substrate {
	d.routeMu.RLock()
	eng := d.routes[memsim.PageOf(a)]
	d.routeMu.RUnlock()
	if eng == SW {
		return d.sw
	}
	return d.hy
}

// ReadF64 implements platform.Substrate.
func (d *DSM) ReadF64(node int, a memsim.Addr) float64 { return d.engine(a).ReadF64(node, a) }

// WriteF64 implements platform.Substrate.
func (d *DSM) WriteF64(node int, a memsim.Addr, v float64) { d.engine(a).WriteF64(node, a, v) }

// ReadI64 implements platform.Substrate.
func (d *DSM) ReadI64(node int, a memsim.Addr) int64 { return d.engine(a).ReadI64(node, a) }

// WriteI64 implements platform.Substrate.
func (d *DSM) WriteI64(node int, a memsim.Addr, v int64) { d.engine(a).WriteI64(node, a, v) }

// ReadBytes implements platform.Substrate (spans must not cross engine
// boundaries; allocations never do).
func (d *DSM) ReadBytes(node int, a memsim.Addr, buf []byte) { d.engine(a).ReadBytes(node, a, buf) }

// WriteBytes implements platform.Substrate.
func (d *DSM) WriteBytes(node int, a memsim.Addr, data []byte) {
	d.engine(a).WriteBytes(node, a, data)
}

// sameEngineRun returns the engine serving address a and how many of the
// next `words` words stay on pages routed to that same engine, so block
// spans dispatch in maximal per-engine chunks (normally the whole span:
// allocations never straddle engines).
func (d *DSM) sameEngineRun(a memsim.Addr, words int) (platform.Substrate, int) {
	eng := d.engine(a)
	n := (memsim.PageSize - memsim.Offset(a)) / memsim.WordSize
	if n > words {
		n = words
	}
	a += memsim.Addr(n * memsim.WordSize)
	for n < words && d.engine(a) == eng {
		c := memsim.PageSize / memsim.WordSize
		if c > words-n {
			c = words - n
		}
		n += c
		a += memsim.Addr(c * memsim.WordSize)
	}
	return eng, n
}

// blockRuns dispatches a block span in maximal same-engine chunks: each
// is one block call on the owning engine (so BlockReads counts one per
// dispatched chunk).
func blockRuns[T memsim.Word](d *DSM, a memsim.Addr, buf []T, call func(platform.Substrate, memsim.Addr, []T)) {
	for len(buf) > 0 {
		eng, n := d.sameEngineRun(a, len(buf))
		call(eng, a, buf[:n])
		buf = buf[n:]
		a += memsim.Addr(n * memsim.WordSize)
	}
}

// ReadF64Block implements platform.Substrate.
func (d *DSM) ReadF64Block(node int, a memsim.Addr, dst []float64) {
	blockRuns(d, a, dst, func(e platform.Substrate, a memsim.Addr, b []float64) { e.ReadF64Block(node, a, b) })
}

// WriteF64Block implements platform.Substrate.
func (d *DSM) WriteF64Block(node int, a memsim.Addr, src []float64) {
	blockRuns(d, a, src, func(e platform.Substrate, a memsim.Addr, b []float64) { e.WriteF64Block(node, a, b) })
}

// ReadI64Block implements platform.Substrate.
func (d *DSM) ReadI64Block(node int, a memsim.Addr, dst []int64) {
	blockRuns(d, a, dst, func(e platform.Substrate, a memsim.Addr, b []int64) { e.ReadI64Block(node, a, b) })
}

// WriteI64Block implements platform.Substrate.
func (d *DSM) WriteI64Block(node int, a memsim.Addr, src []int64) {
	blockRuns(d, a, src, func(e platform.Substrate, a memsim.Addr, b []int64) { e.WriteI64Block(node, a, b) })
}

// both drives the two engines as one at a synchronization boundary: one
// unified lock or barrier performs BOTH engines' consistency actions.
type both struct {
	sw *swdsm.DSM
	hy *hybriddsm.DSM
}

// FlushInterval collects both engines' interval notices.
func (b both) FlushInterval(node int) []memsim.PageID {
	return append(b.sw.FlushInterval(node), b.hy.FlushInterval(node)...)
}

// InvalidatePages applies notices to both engines (each ignores pages it
// does not hold).
func (b both) InvalidatePages(node int, pages []memsim.PageID) {
	if len(pages) == 0 {
		return
	}
	b.sw.InvalidatePages(node, pages)
	b.hy.InvalidatePages(node, pages)
}

// Fence implements platform.Substrate.
func (d *DSM) Fence(node int) {
	d.sw.Fence(node)
	d.hy.Fence(node)
}

// NodeStats implements platform.Substrate: the sum of both engines'
// counters plus the unified synchronization layer's.
func (d *DSM) NodeStats(node int) platform.Stats {
	return d.SyncStats(node, d.sw.NodeStats(node).Add(d.hy.NodeStats(node)))
}

// ResetStats implements platform.Substrate.
func (d *DSM) ResetStats(node int) {
	d.sw.ResetStats(node)
	d.hy.ResetStats(node)
	d.ResetSyncStats(node)
}

// SetRecorder implements platform.Substrate: attaches the recorder to the
// composition's own synchronization layer and to both engines.
func (d *DSM) SetRecorder(rec *perfmon.Recorder) {
	d.Manager.SetRecorder(rec)
	d.sw.SetRecorder(rec)
	d.hy.SetRecorder(rec)
}

// Close implements platform.Substrate.
func (d *DSM) Close() {
	d.sw.Close()
	d.hy.Close()
}
