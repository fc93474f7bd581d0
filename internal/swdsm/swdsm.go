// Package swdsm implements a software distributed shared memory system in
// the style of JiaJia (Hu, Shi, Tang 1999): home-based Scope Consistency
// with a multiple-writer protocol.
//
// Every global page has a home node holding the authoritative copy. Other
// nodes cache pages on demand; a first write after validation creates a
// twin, and at release points (lock release, barrier, fence) the writer
// diffs its copy against the twin and sends the diff to the home. Write
// notices — the identities of modified pages — travel with synchronization:
// a lock carries the notices of critical sections protected by it (the
// scope), a barrier merges everyone's notices globally. Acquiring nodes
// invalidate their cached copies of noticed pages and refetch from the home
// on next access.
//
// The paper integrates JiaJia as its Beowulf-architecture substrate (§3.2)
// after replacing its startup and messaging with HAMSTER's coalesced layer
// (§3.3); correspondingly this package builds one active-message layer
// over its own network, and the core runtime adopts that layer (Layer) for
// user messaging rather than stacking a second one beside it. The page
// cache is intentionally per-node real storage: a protocol bug produces
// wrong benchmark results, not just wrong cost numbers.
//
// The data path is two routines, readPage and writePage: all ten
// platform.Substrate accessors call them with (words to charge, accesses
// to count), load from or store to the frame they return, and release it
// with unlock — a home frame comes back with its mutex held, because
// remote fetch and diff handlers touch home frames from other goroutines.
package swdsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hamster/internal/amsg"
	"hamster/internal/consengine"
	"hamster/internal/hsync"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Active-message kinds used by the protocol.
const (
	kindFetchPage amsg.Kind = iota + 1
	kindApplyDiff
)

// defaultCachePages is the per-node cached-page capacity when the
// configuration leaves it zero (16 MiB of remote data per node).
const defaultCachePages = 4096

// Protocol selects the consistency protocol variant (§4.5: the
// consistency API carries "optimized implementations of all widely used
// models").
type Protocol int

const (
	// ScopeConsistency (the default, JiaJia's model): write notices
	// travel with the lock under which the writes happened; acquiring a
	// lock invalidates only that scope's pages.
	ScopeConsistency Protocol = iota
	// EagerRC is eager Release Consistency: every release publishes its
	// write notices toward all nodes immediately (paying a message per
	// peer), and any subsequent acquire — of any lock — invalidates them.
	// Stronger than scope, correspondingly noisier.
	EagerRC
)

// String names the protocol.
func (p Protocol) String() string {
	if p == EagerRC {
		return "eager-rc"
	}
	return "scope"
}

// Config parameterizes a DSM instance.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Params is the cost model; zero value means machine.Default().
	Params machine.Params
	// CachePages caps the per-node page cache (0 = defaultCachePages).
	CachePages int
	// Topology places the nodes in a switch fabric (see simnet.Topology);
	// the zero value is the flat legacy network. The DSM's own network
	// carries it, and its synchronization cost arithmetic follows it.
	Topology simnet.Topology
	// Space optionally supplies a shared global address space (multi-DSM
	// composition, §6). When nil the DSM owns a private space.
	Space *memsim.Space
	// Clocks optionally supplies shared per-node clocks (multi-DSM
	// composition). Length must equal Nodes.
	Clocks []*vclock.Clock
	// MigrateAfter enables home migration (JiaJia's single-writer
	// optimization): a page whose cached copy produced this many
	// consecutive diffs without an intervening invalidation migrates its
	// home to the writer at the next barrier. 0 disables migration.
	MigrateAfter int
	// Protocol selects Scope Consistency (default) or eager Release
	// Consistency.
	Protocol Protocol
	// Aggregation configures the protocol aggregation layer (batched diff
	// flush, write-notice piggybacking, adaptive prefetch — see
	// aggregate.go). The zero value is off and bit-identical to the
	// baseline protocol.
	Aggregation Aggregation
	// DropInvalidations deliberately breaks the protocol: acquire- and
	// barrier-side invalidations are silently skipped, so stale copies
	// survive synchronization. It exists ONLY as the conformance
	// harness's negative control (a broken engine the litmus battery
	// must catch); never set it outside tests.
	DropInvalidations bool
}

// DSM is one software-DSM cluster. Synchronization is the embedded
// manager over an Ethernet wire whose messages carry write notices; this
// package supplies the consistency engine it drives (FlushInterval,
// InvalidatePages) and the three protocol hooks in sync.go.
type DSM struct {
	platform.Base
	*hsync.Manager
	layer *amsg.Layer
	nodes []*node
	msg   hsync.CostFn // one protocol message under the configured topology

	cacheCap     int
	migrateAfter int
	protocol     Protocol
	agg          Aggregation
	dropInval    bool // conformance-harness negative control
	migration    *migrationState
	vbMig        *vclock.VBarrier

	// ckptTrack gates the checkpoint dirty-page tracking hooks. Off by
	// default so runs without incremental checkpointing pay a single
	// atomic load on the (real-time-only) hook sites — virtual costs are
	// never charged by tracking either way.
	ckptTrack atomic.Bool

	rec *perfmon.Recorder // protocol event recorder; nil until attached
}

// cpage is one cached remote page. Owned exclusively by the node's
// goroutine; structs recycle through pagestore's entry pool, their page
// buffers through its page list.
type cpage = pagestore.Entry[pageExt]

var cpagePool pagestore.EntryPool[pageExt]

// pageExt is what the multiple-writer protocol keeps per cached page.
type pageExt struct {
	twin []byte // non-nil while the page is dirty
	// diffStreak counts consecutive intervals in which this node diffed
	// the page without anyone else's write notice invalidating it — the
	// single-writer detector for home migration.
	diffStreak int
}

// fastFrame is what a node's read window remembers about a resolved
// page, so that repeated accesses skip the home lookup and the cache-map
// probe. An entry is valid only while its generation matches the node's:
// every consistency action (acquire, release, barrier, fence), eviction,
// and home migration bumps the generation, so the fast path can never
// serve a frame across a synchronization point — Scope Consistency is
// untouched. Home-resident frames still take the per-access frame mutex
// (remote fetch and diff handlers touch them from other goroutines), and
// cached frames still refresh their LRU position, so eviction order is
// identical to the slow path's.
type fastFrame struct {
	hp    *pagestore.Frame // home-resident frame, or
	cp    *cpage           // cache entry of a cached (non-home) frame
	dirty bool             // write-ready: twin exists / homeDirty recorded
}

type node struct {
	id   int
	dsm  *DSM
	home *pagestore.Store
	// pcache models this node's CPU cache for local references (see
	// machine.PageCache); misses pay the private-bus DRAM cost.
	pcache *machine.PageCache

	// Owner-goroutine state: the page cache and interval tracking. Only
	// the node's own goroutine touches these (invalidations are applied
	// by the owner when it acquires), so no locking is needed.
	cache     map[memsim.PageID]*cpage
	lru       pagestore.LRU[pageExt] // front = most recent
	dirty     map[memsim.PageID]struct{}
	homeDirty map[memsim.PageID]struct{}
	gen       uint64 // invalidates every window entry when bumped
	window    memsim.Window[fastFrame]

	// flushScratch is the release-side batch grouping (owner goroutine
	// only): it grows to the interval working size once, then recycles —
	// the marginal allocation cost of a flushed page is zero (gated by the
	// bench package's TestDiffFlushMarginalZeroAlloc).
	flushScratch []homeDiff

	// ckptDirty records home pages mutated since the last checkpoint
	// capture (local drains, remote diffs, migration installs). Unlike the
	// owner-goroutine maps above it is written from protocol handlers on
	// other goroutines, hence the mutex.
	ckptMu    sync.Mutex
	ckptDirty map[memsim.PageID]struct{}

	// pf is the adaptive prefetch tracker; nil unless Aggregation.Prefetch
	// is on, so the off mode pays one nil check per hook site.
	pf *prefetcher

	stats platform.Stats
}

// markCkptDirty records a home-frame mutation for incremental checkpoint
// capture. No-op (one atomic load) unless tracking is enabled.
func (n *node) markCkptDirty(p memsim.PageID) {
	if !n.dsm.ckptTrack.Load() {
		return
	}
	n.ckptMu.Lock()
	if n.ckptDirty == nil {
		n.ckptDirty = make(map[memsim.PageID]struct{})
	}
	n.ckptDirty[p] = struct{}{}
	n.ckptMu.Unlock()
}

// bumpGen invalidates the cached-frame fast path.
func (n *node) bumpGen() { n.gen++ }

// New builds a software-DSM cluster.
func New(cfg Config) (*DSM, error) {
	base, err := platform.NewBase("swdsm", cfg.Nodes, cfg.Params, cfg.Space, cfg.Clocks)
	if err != nil {
		return nil, err
	}
	d := &DSM{
		Base: base, nodes: make([]*node, cfg.Nodes), cacheCap: cfg.CachePages,
		protocol: cfg.Protocol, agg: cfg.Aggregation, dropInval: cfg.DropInvalidations,
		migrateAfter: cfg.MigrateAfter, migration: newMigrationState(), vbMig: vclock.NewVBarrier(cfg.Nodes),
	}
	if d.cacheCap <= 0 {
		d.cacheCap = defaultCachePages
	}
	d.layer = amsg.New(simnet.NewTopo(base.Cost.Ethernet, d.Clocks, cfg.Topology), base.Cost.Ethernet)
	for i := range d.nodes {
		n := &node{
			id:        i,
			dsm:       d,
			home:      pagestore.New(),
			pcache:    machine.NewPageCache(base.Cost.Bus.CachePages),
			cache:     make(map[memsim.PageID]*cpage),
			dirty:     make(map[memsim.PageID]struct{}),
			homeDirty: make(map[memsim.PageID]struct{}),
		}
		if cfg.Aggregation.Prefetch {
			n.pf = newPrefetcher()
		}
		d.nodes[i] = n
		d.registerHandlers(n)
		d.registerAggHandlers(n)
		d.registerMigrateHandler(n)
	}
	sc := d.syncConfig()
	d.msg = sc.Wire.Msg
	d.Manager = hsync.NewManager(sc)
	return d, nil
}

func (d *DSM) registerHandlers(n *node) {
	id := simnet.NodeID(n.id)
	d.layer.Register(id, kindFetchPage, func(_ amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		dec := amsg.MakeDec(req)
		p := memsim.PageID(dec.U64())
		hp := n.home.Frame(p)
		hp.Mu.Lock()
		// The reply buffer comes from the page list and will BECOME the
		// requester's cached copy; it goes back when that copy is retired
		// (see pagestore/cache.go for the ownership chain).
		out := pagestore.GetPage()
		copy(out, hp.Data)
		hp.Mu.Unlock()
		return out, d.Cost.CPU.PageCopyNs
	})
	d.layer.Register(id, kindApplyDiff, func(_ amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		dec := amsg.MakeDec(req)
		p := memsim.PageID(dec.U64())
		return nil, n.applyHome(p, dec.Blob())
	})
}

// applyHome patches home page p with one diff, singleton or batched, and
// returns what applying it costs: roughly a proportional share of a page
// copy (batching saves messages, never modeled CPU work).
func (n *node) applyHome(p memsim.PageID, diff []byte) vclock.Duration {
	hp := n.home.Frame(p)
	hp.Mu.Lock()
	err := applyDiff(hp.Data, diff)
	hp.Mu.Unlock()
	if err != nil {
		panic(err) // internal protocol corruption
	}
	n.markCkptDirty(p)
	cost := n.dsm.Cost.CPU.PageCopyNs * vclock.Duration(len(diff)+1) / memsim.PageSize
	if rec := n.dsm.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvDiffApply, n.dsm.Clocks[n.id].Now(), cost, uint64(p), uint64(len(diff)))
	}
	return cost
}

// Kind implements platform.Substrate.
func (d *DSM) Kind() platform.Kind { return platform.SWDSM }

// Layer exposes the active-message layer: core adopts it for coalesced
// user messaging, and the fault campaigns install plans on its network.
func (d *DSM) Layer() *amsg.Layer { return d.layer }

// DeclaredModel implements consengine.Engine: the model this protocol
// claims for data-race-free programs — Scope for the default protocol,
// Release for the eager variant (any acquire applies every notice). The
// conformance harness in internal/conscheck verifies the claim.
func (d *DSM) DeclaredModel() consengine.Model {
	if d.protocol == EagerRC {
		return consengine.Release
	}
	return consengine.Scope
}

// Caps implements platform.Substrate.
func (d *DSM) Caps() platform.Caps {
	return platform.Caps{
		PageCaching:      true,
		ConsistencyModel: d.protocol.String(),
		Placement:        platform.Policies(),
	}
}

// NodeStats implements platform.Substrate. Call only while the node's
// program is quiescent (e.g., after the SPMD run joined).
func (d *DSM) NodeStats(node int) platform.Stats { return d.SyncStats(node, d.nodes[node].stats) }

// ResetStats implements platform.Substrate. Quiescent use only.
func (d *DSM) ResetStats(node int) {
	d.nodes[node].stats = platform.Stats{}
	d.ResetSyncStats(node)
}

// SetRecorder implements platform.Substrate: attaches the recorder to the
// protocol and to the messaging stack underneath it (the active-message
// layer and its network), so one call instruments the whole path.
func (d *DSM) SetRecorder(rec *perfmon.Recorder) {
	d.rec = rec
	d.Manager.SetRecorder(rec)
	d.layer.SetRecorder(rec)
}

// Close implements platform.Substrate: it closes the network and, at
// quiescence, hands every page buffer the cluster holds back to the page
// list — cached copies, their twins and the home frames. Accesses after
// it panic (access); a second Close has nothing left to hand back.
func (d *DSM) Close() {
	d.layer.Network().Close()
	for _, n := range d.nodes {
		for _, cp := range n.cache {
			pagestore.PutPage(cp.Ext.twin)
			cpagePool.Put(cp)
		}
		n.home.Close()
	}
	d.nodes = nil
}

// readPage is the one read path under all five read accessors: it charges
// costWords words of access, counts reads accesses, runs the CPU-cache
// model and returns the bytes of page p, fetching the page into the cache
// on a miss. A word read is (1, 1), a byte span (1+len/8, 1), a block run
// (count, count).
//
// When the page is homed locally the returned frame is non-nil and its
// mutex is HELD: the caller releases it with unlock after performing the
// access. This keeps the owner's in-place home accesses coherent with
// remote fetch/diff handlers running on other goroutines (false sharing
// between nodes is legal in DRF programs).
func (n *node) readPage(p memsim.PageID, costWords, reads int) ([]byte, *pagestore.Frame) {
	n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.CPU.AccessNs*vclock.Duration(costWords))
	n.stats.Reads += uint64(reads)
	n.touchLocal(p)
	if f := n.window.Get(p, n.gen); f != nil {
		// Fast path: the page was resolved earlier in this interval and no
		// consistency action has intervened.
		return n.windowFrame(f)
	}
	home := n.dsm.Mem.HomeFor(p, n.id)
	if home == n.id {
		hp := n.home.Frame(p)
		_, hd := n.homeDirty[p]
		n.window.Put(p, n.gen, fastFrame{hp: hp, dirty: hd})
		hp.Mu.Lock()
		return hp.Data, hp
	}
	if cp, ok := n.cache[p]; ok {
		n.notePrefetchHit(p)
		n.lru.MoveToFront(cp)
		n.window.Put(p, n.gen, fastFrame{cp: cp, dirty: cp.Ext.twin != nil})
		return cp.Data, nil
	}
	cp := n.fault(p, home)
	n.window.Put(p, n.gen, fastFrame{cp: cp})
	return cp.Data, nil
}

// unlock releases the home frame readPage or writePage returned locked;
// cached frames (hp == nil) are private to their node and carry no lock.
func unlock(hp *pagestore.Frame) {
	if hp != nil {
		hp.Mu.Unlock()
	}
}

// windowFrame serves an access from a window entry: a home frame comes
// back locked like the slow path's, a cached frame refreshes its LRU
// position so eviction order matches the slow path.
func (n *node) windowFrame(f *fastFrame) ([]byte, *pagestore.Frame) {
	if f.hp != nil {
		f.hp.Mu.Lock()
		return f.hp.Data, f.hp
	}
	n.lru.MoveToFront(f.cp)
	return f.cp.Data, nil
}

// fault fetches a remote page into the cache.
func (n *node) fault(p memsim.PageID, home int) *cpage {
	clk := n.dsm.Clocks[n.id]
	t0 := clk.Now()
	enc := amsg.GetEnc()
	req := enc.U64(uint64(p)).Bytes()
	n.stats.ProtocolMsgs++
	data, err := n.dsm.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(home), kindFetchPage, req)
	if err != nil {
		// The home may have migrated between the lookup and the call;
		// a re-resolved home gets one more chance. Beyond that the run is
		// lost — the authoritative copy lives nowhere else — so fail with
		// a diagnostic instead of computing on stale data.
		if cur := n.dsm.Mem.Home(p); cur != home {
			home = cur
			n.stats.ProtocolMsgs++
			data, err = n.dsm.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(home), kindFetchPage, req)
		}
		if err != nil {
			panic(fmt.Sprintf("swdsm: node %d cannot fetch page %d from home node %d: %v", n.id, p, home, err))
		}
	}
	enc.Free()                                                  // the call returned: no reference to the request remains
	clk.AdvanceCat(vclock.CatMemory, n.dsm.Cost.CPU.PageCopyNs) // install copy
	if rec := n.dsm.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvPageFault, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(home))
	}
	cp := cpagePool.Get()
	cp.Data = data
	cp.Page = p
	n.lru.PushFront(cp)
	n.cache[p] = cp
	n.stats.PageFaults++
	n.evictIfNeeded()
	n.maybePrefetch(p, home)
	return cp
}

func (n *node) evictIfNeeded() {
	for len(n.cache) > n.dsm.cacheCap {
		cp := n.lru.Back()
		if cp == nil {
			return
		}
		n.bumpGen()
		p := cp.Page
		if cp.Ext.twin != nil {
			n.flushPage(p, cp)
		}
		n.notePrefetchDrop(p)
		n.lru.Remove(cp)
		delete(n.cache, p)
		delete(n.dirty, p)
		cpagePool.Put(cp)
		n.stats.Evictions++
	}
}

// writePage is readPage's counterpart under the five write accessors: same
// bookkeeping, and the frame it returns is write-ready — a twin exists for
// a remote page from the first write of an interval on. A home frame comes
// back locked, as from readPage.
func (n *node) writePage(p memsim.PageID, costWords, writes int) ([]byte, *pagestore.Frame) {
	n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.CPU.AccessNs*vclock.Duration(costWords))
	n.stats.Writes += uint64(writes)
	n.touchLocal(p)
	if f := n.window.Get(p, n.gen); f != nil && f.dirty {
		// Fast path: the page is already write-ready for this interval
		// (twin created / homeDirty recorded), so the slow path would be
		// pure bookkeeping re-checks.
		return n.windowFrame(f)
	}
	home := n.dsm.Mem.HomeFor(p, n.id)
	if home == n.id {
		n.homeDirty[p] = struct{}{}
		hp := n.home.Frame(p)
		n.window.Put(p, n.gen, fastFrame{hp: hp, dirty: true})
		hp.Mu.Lock()
		return hp.Data, hp
	}
	cp, ok := n.cache[p]
	if !ok {
		cp = n.fault(p, home)
	} else {
		n.notePrefetchHit(p)
		n.lru.MoveToFront(cp)
	}
	if cp.Ext.twin == nil {
		clk := n.dsm.Clocks[n.id]
		t0 := clk.Now()
		cp.Ext.twin = pagestore.GetPage()
		copy(cp.Ext.twin, cp.Data)
		clk.AdvanceCat(vclock.CatMemory, n.dsm.Cost.CPU.PageCopyNs)
		n.stats.TwinsCreated++
		n.dirty[p] = struct{}{}
		if rec := n.dsm.rec; rec != nil && rec.Enabled() {
			rec.Record(n.id, perfmon.EvTwinCreate, t0, vclock.Since(t0, clk.Now()), uint64(p), 0)
		}
	}
	n.window.Put(p, n.gen, fastFrame{cp: cp, dirty: true})
	return cp.Data, nil
}

// touchLocal charges the CPU-cache model for one local page reference.
func (n *node) touchLocal(p memsim.PageID) {
	if !n.pcache.Touch(uint64(p)) {
		n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.Bus.MissCost())
		n.stats.CacheMisses++
	}
}

func (d *DSM) access(nodeID int) *node {
	if nodeID < 0 || nodeID >= len(d.nodes) {
		panic(platform.BadNode("swdsm", nodeID, d.nodes == nil))
	}
	return d.nodes[nodeID]
}

// ReadF64 implements platform.Substrate.
func (d *DSM) ReadF64(nodeID int, a memsim.Addr) float64 {
	fr, hp := d.access(nodeID).readPage(memsim.PageOf(a), 1, 1)
	v := memsim.GetF64(fr, memsim.Offset(a))
	unlock(hp)
	return v
}

// WriteF64 implements platform.Substrate.
func (d *DSM) WriteF64(nodeID int, a memsim.Addr, v float64) {
	fr, hp := d.access(nodeID).writePage(memsim.PageOf(a), 1, 1)
	memsim.PutF64(fr, memsim.Offset(a), v)
	unlock(hp)
}

// ReadI64 implements platform.Substrate.
func (d *DSM) ReadI64(nodeID int, a memsim.Addr) int64 {
	fr, hp := d.access(nodeID).readPage(memsim.PageOf(a), 1, 1)
	v := memsim.GetI64(fr, memsim.Offset(a))
	unlock(hp)
	return v
}

// WriteI64 implements platform.Substrate.
func (d *DSM) WriteI64(nodeID int, a memsim.Addr, v int64) {
	fr, hp := d.access(nodeID).writePage(memsim.PageOf(a), 1, 1)
	memsim.PutI64(fr, memsim.Offset(a), v)
	unlock(hp)
}

// ReadBytes implements platform.Substrate; the span may cross pages.
func (d *DSM) ReadBytes(nodeID int, a memsim.Addr, buf []byte) {
	n := d.access(nodeID)
	memsim.ByteRuns(a, len(buf), func(p memsim.PageID, off, chunk int) {
		fr, hp := n.readPage(p, 1+chunk/memsim.WordSize, 1)
		copy(buf[:chunk], fr[off:off+chunk])
		unlock(hp)
		buf = buf[chunk:]
	})
}

// WriteBytes implements platform.Substrate; the span may cross pages.
func (d *DSM) WriteBytes(nodeID int, a memsim.Addr, data []byte) {
	n := d.access(nodeID)
	memsim.ByteRuns(a, len(data), func(p memsim.PageID, off, chunk int) {
		fr, hp := n.writePage(p, 1+chunk/memsim.WordSize, 1)
		copy(fr[off:off+chunk], data[:chunk])
		unlock(hp)
		data = data[chunk:]
	})
}
