// Package hybriddsm implements a hybrid hardware/software DSM in the style
// of the SCI-VM (Schulz 1999), the system this paper's framework grew out
// of.
//
// A Shared Memory Cluster interconnect (SCI-like SAN) lets any node read
// and write remote memory directly, with no software protocol on the data
// path: remote reads are µs-scale PIO loads, remote writes are cheap posted
// stores drained by an explicit store barrier. Memory management remains in
// software — pages are distributed across nodes by placement policy — which
// is what makes the system "hybrid".
//
// Two software optimizations sit on top of the raw hardware path, both
// controlled by relaxed consistency:
//
//   - Read caching: a remote page that a node keeps reading is fetched in
//     one block transfer and cached locally; cached copies are invalidated
//     by write notices at acquire/barrier points, exactly like a software
//     DSM but with ~50× cheaper synchronization messages.
//   - Posted writes: remote stores complete locally and drain in the
//     background; release points pay one store-barrier flush.
//
// There are no twins and no diffs: writes go straight to the home copy.
// That asymmetry versus package swdsm is the paper's Figure 3 — write-heavy
// phases (LU initialization) and synchronization-heavy codes benefit most.
//
// The whole data path is two routines, readRun and writeRun: all ten
// platform.Substrate accessors call them with (accesses, words per access)
// and a callback that loads from or stores to the frame. They are also
// the only code that takes a home frame's lock, and they release it
// themselves. Everything else a node owns — cache, LRU, read counts,
// written set, page window, statistics — belongs to its goroutine and is
// unlocked.
//
// The page window (memsim.Window, as in swdsm and ivy) holds one slot per
// recently resolved page: its home frame, its cached copy or nil, its home
// node, and whether the page is already in the interval's written set.
// An access after the page's first in the interval resolves it with one
// window probe instead of the home lookup, the cache map and the frame
// table, and a repeat write skips the written-set store too. (A PIO read
// still steps the page's read count toward the caching threshold.) Two
// events move the node's generation and so drop every slot: drop, through
// which eviction, acquire and barrier notices and Fence retire cached
// copies, and collectNotices, the interval end that clears the written
// set. A slot thus lives until the node's next interval boundary or
// dropped copy; a page becomes cached only in pioRead, which stores the
// new copy in its slot. Home frames are never migrated or dropped, so a
// slot's frame pointer cannot go stale in between.
package hybriddsm

import (
	"hamster/internal/hsync"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/vclock"
)

// defaultCachePages caps each node's read cache (16 MiB).
const defaultCachePages = 4096

// defaultCacheThreshold is the number of remote reads of one page within
// an interval that triggers caching the page locally.
const defaultCacheThreshold = 16

// Config parameterizes a hybrid-DSM cluster.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Params is the cost model; zero value means machine.Default().
	Params machine.Params
	// CachePages caps the per-node read cache (0 = defaultCachePages).
	CachePages int
	// CacheThreshold is the remote-read count that triggers page caching
	// (0 = defaultCacheThreshold, negative = caching disabled).
	CacheThreshold int
	// DisablePostedWrites makes remote writes synchronous PIO stores
	// (ablation knob: each write pays the full remote-read latency).
	DisablePostedWrites bool
	// Space optionally supplies a shared global address space (multi-DSM
	// composition, §6).
	Space *memsim.Space
	// Clocks optionally supplies shared per-node clocks (multi-DSM
	// composition). Length must equal Nodes.
	Clocks []*vclock.Clock
}

// DSM is one hybrid-DSM cluster. Synchronization is the embedded manager
// over a SAN wire: locks and the barrier are remote atomic operations —
// no CPU is interrupted at any home node — and the manager drives this
// engine's FlushInterval/InvalidatePages at every boundary.
type DSM struct {
	platform.Base
	*hsync.Manager
	nodes     []*node
	cacheCap  int
	threshold int
	posted    bool

	rec *perfmon.Recorder // protocol event recorder; nil until attached
}

// cpage is one read-cached remote page; structs recycle through
// pagestore's entry pool, page buffers through its page list.
type cpage = pagestore.Entry[struct{}]

var cpagePool pagestore.EntryPool[struct{}]

// slot is what a node's window remembers about a resolved page.
type slot struct {
	hf      *pagestore.Frame // the page's home frame
	cp      *cpage           // this node's cached copy, or nil
	home    int
	written bool // the page is in this interval's written set
}

type node struct {
	id   int
	dsm  *DSM
	home *pagestore.Store
	// pcache models this node's CPU cache for local references.
	pcache *machine.PageCache

	// Owner-goroutine state.
	cache     map[memsim.PageID]*cpage
	lru       pagestore.LRU[struct{}]
	readCount map[memsim.PageID]int
	written   map[memsim.PageID]struct{}
	postedOut int    // posted writes since the last store barrier
	gen       uint64 // invalidates every window slot when bumped
	window    memsim.Window[slot]

	stats platform.Stats
}

// New builds a hybrid-DSM cluster.
func New(cfg Config) (*DSM, error) {
	base, err := platform.NewBase("hybriddsm", cfg.Nodes, cfg.Params, cfg.Space, cfg.Clocks)
	if err != nil {
		return nil, err
	}
	d := &DSM{Base: base, nodes: make([]*node, cfg.Nodes), posted: !cfg.DisablePostedWrites}
	d.cacheCap = cfg.CachePages
	if d.cacheCap <= 0 {
		d.cacheCap = defaultCachePages
	}
	switch {
	case cfg.CacheThreshold < 0:
		d.threshold = 0 // disabled
	case cfg.CacheThreshold == 0:
		d.threshold = defaultCacheThreshold
	default:
		d.threshold = cfg.CacheThreshold
	}
	for i := range d.nodes {
		d.nodes[i] = &node{
			id:        i,
			dsm:       d,
			home:      pagestore.New(),
			pcache:    machine.NewPageCache(base.Cost.Bus.CachePages),
			cache:     make(map[memsim.PageID]*cpage),
			readCount: make(map[memsim.PageID]int),
			written:   make(map[memsim.PageID]struct{}),
		}
	}
	d.Manager = hsync.NewManager(hsync.Config{
		Name:   "hybriddsm",
		Clocks: d.Clocks,
		Wire:   hsync.AtomicWire(base.Cost.SAN.SyncMsgNs, base.Cost.SAN.SyncMsgNs),
		Engine: d,
	})
	return d, nil
}

// Kind implements platform.Substrate.
func (d *DSM) Kind() platform.Kind { return platform.HybridDSM }

// Caps implements platform.Substrate.
func (d *DSM) Caps() platform.Caps {
	return platform.Caps{
		RemoteAccess:     true,
		PageCaching:      d.threshold > 0,
		ConsistencyModel: "release",
		Placement:        platform.Policies(),
	}
}

// NodeStats implements platform.Substrate. Call while the node is
// quiescent.
func (d *DSM) NodeStats(node int) platform.Stats { return d.SyncStats(node, d.nodes[node].stats) }

// ResetStats implements platform.Substrate. Quiescent use only.
func (d *DSM) ResetStats(node int) {
	d.nodes[node].stats = platform.Stats{}
	d.ResetSyncStats(node)
}

// SetRecorder implements platform.Substrate.
func (d *DSM) SetRecorder(rec *perfmon.Recorder) {
	d.rec = rec
	d.Manager.SetRecorder(rec)
}

// Close implements platform.Substrate: at quiescence it hands every
// cached copy and home frame back to the page list. Accesses after it
// panic (access); a second Close has nothing left to hand back.
func (d *DSM) Close() {
	for _, n := range d.nodes {
		for _, cp := range n.cache {
			n.drop(cp)
		}
		n.home.Close()
	}
	d.nodes = nil
}

func (d *DSM) access(nodeID int) *node {
	if nodeID < 0 || nodeID >= len(d.nodes) {
		panic(platform.BadNode("hybriddsm", nodeID, d.nodes == nil))
	}
	return d.nodes[nodeID]
}

// touchLocal charges the CPU-cache model for one local page reference.
func (n *node) touchLocal(p memsim.PageID) {
	if !n.pcache.Touch(uint64(p)) {
		n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.Bus.MissCost())
		n.stats.CacheMisses++
	}
}

// readRun is the one read path under all five read accessors: count
// accesses of unit words each to page p, with get called exactly once to
// load them from the frame that serves them. A word read is 1×1, a byte
// span one access of 1+len/8 words, a block run count×1. Every access is
// one read counted and one step toward the caching threshold; every word
// pays the access charge and, over the SAN, one PIO load.
//
// A page homed here or cached here serves the whole run at local cost;
// an uncached remote page goes to pioRead.
func (n *node) readRun(p memsim.PageID, count, unit int, get func(fr []byte)) {
	s := n.window.Get(p, n.gen)
	if s == nil {
		s = n.resolve(p)
	}
	if s.cp == nil && s.home != n.id {
		n.pioRead(p, s, count, unit, get)
		return
	}
	d := n.dsm
	d.Clocks[n.id].AdvanceCat(vclock.CatMemory, d.Cost.CPU.AccessNs*vclock.Duration(unit)*vclock.Duration(count))
	n.stats.Reads += uint64(count)
	n.touchLocal(p)
	if s.cp != nil {
		n.lru.MoveToFront(s.cp)
		get(s.cp.Data)
		return
	}
	// The home frame's lock keeps the owner's in-place accesses coherent
	// with peers' PIO loads and stores of the same page.
	s.hf.Mu.Lock()
	get(s.hf.Data)
	s.hf.Mu.Unlock()
}

// resolve looks page p up without the window — its home, its home frame
// and, for a remote page, this node's cached copy or nil — and stores the
// result as p's slot.
func (n *node) resolve(p memsim.PageID) *slot {
	v := slot{home: n.dsm.Mem.HomeFor(p, n.id)}
	if v.home != n.id {
		v.cp = n.cache[p]
	}
	v.hf = n.dsm.nodes[v.home].home.Frame(p)
	n.window.Put(p, n.gen, v)
	return n.window.Get(p, n.gen)
}

// pioRead serves readRun's accesses to the uncached remote page of slot
// s: PIO loads until the page's read count reaches the threshold; the
// page is then fetched in one block transfer, and the accesses left in
// the run hit the new copy — the steps count×unit single-word reads would
// take, charged in one go.
func (n *node) pioRead(p memsim.PageID, s *slot, count, unit int, get func(fr []byte)) {
	d := n.dsm
	clk := d.Clocks[n.id]
	pio, caches := count, false
	if d.threshold > 0 {
		if left := d.threshold - n.readCount[p]; left <= count {
			pio, caches = left, true
		} else {
			n.readCount[p] += count
		}
	}
	words := vclock.Duration(pio * unit)
	clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.AccessNs*words)
	clk.AdvanceCat(vclock.CatNetwork, d.Cost.SAN.RemoteReadNs*words)
	n.stats.Reads += uint64(pio)
	n.stats.RemoteReads += uint64(words)
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvRemoteRead, clk.Now(), 0, uint64(p), uint64(words))
	}
	s.hf.Mu.Lock()
	get(s.hf.Data)
	if !caches {
		s.hf.Mu.Unlock()
		return
	}
	// install may evict, moving the generation on, so the page's slot is
	// stored afresh under the new one. The copy into the cache happens
	// under the home's lock.
	v := *s
	v.cp = n.install(p, v.home, v.hf.Data)
	v.hf.Mu.Unlock()
	n.window.Put(p, n.gen, v)
	if rest := count - pio; rest > 0 {
		clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.AccessNs*vclock.Duration(unit)*vclock.Duration(rest))
		n.stats.Reads += uint64(rest)
		n.touchLocal(p)
	}
}

// install fetches a hot remote page into the local read cache in one
// block transfer, evicting from the cold end past the cache's capacity,
// and returns the new copy.
func (n *node) install(p memsim.PageID, home int, homeData []byte) *cpage {
	d := n.dsm
	clk := d.Clocks[n.id]
	t0 := clk.Now()
	clk.AdvanceCat(vclock.CatNetwork, d.Cost.SAN.PageFetchNs)
	clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.PageCopyNs)
	cp := cpagePool.Get()
	cp.Data = pagestore.GetPage()
	copy(cp.Data, homeData)
	cp.Page = p
	n.lru.PushFront(cp)
	n.cache[p] = cp
	n.stats.PageFaults++ // block transfers counted as "faults" for parity
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvPageFault, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(home))
	}
	delete(n.readCount, p)
	for len(n.cache) > d.cacheCap {
		n.drop(n.lru.Back())
		n.stats.Evictions++
	}
	return cp
}

// drop retires one cached copy, and with it every window slot.
func (n *node) drop(cp *cpage) {
	n.gen++
	n.lru.Remove(cp)
	delete(n.cache, cp.Page)
	cpagePool.Put(cp)
}

// writeRun is the one write path under all five write accessors, with
// readRun's parameters; put is called once per frame that must take the
// stores. Writes go straight through to the home copy (no twins, no
// diffs): a remote store is posted — it completes locally and drains at
// the next store barrier — or, with posted writes disabled, a synchronous
// PIO store at the remote-read latency. A page's first write in the
// interval enters it in the written set and marks its window slot, so
// the writes after it resolve the page with the window probe alone.
func (n *node) writeRun(p memsim.PageID, count, unit int, put func(fr []byte)) {
	d := n.dsm
	clk := d.Clocks[n.id]
	words := vclock.Duration(count * unit)
	clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.AccessNs*words)
	n.stats.Writes += uint64(count)
	s := n.window.Get(p, n.gen)
	if s == nil {
		s = n.resolve(p)
	}
	if !s.written {
		n.written[p] = struct{}{}
		s.written = true
	}
	if s.home == n.id {
		n.touchLocal(p)
	} else {
		if d.posted {
			clk.AdvanceCat(vclock.CatNetwork, d.Cost.SAN.RemoteWriteNs*words)
			n.postedOut += int(words)
		} else {
			clk.AdvanceCat(vclock.CatNetwork, d.Cost.SAN.RemoteReadNs*words)
		}
		n.stats.RemoteWrites += uint64(words)
		if rec := d.rec; rec != nil && rec.Enabled() {
			rec.Record(n.id, perfmon.EvRemoteWrite, clk.Now(), 0, uint64(p), uint64(words))
		}
		// Keep a locally cached copy coherent with our own store.
		if s.cp != nil {
			put(s.cp.Data)
		}
	}
	s.hf.Mu.Lock()
	put(s.hf.Data)
	s.hf.Mu.Unlock()
}

// ReadF64 implements platform.Substrate.
func (d *DSM) ReadF64(nodeID int, a memsim.Addr) (v float64) {
	d.access(nodeID).readRun(memsim.PageOf(a), 1, 1, func(fr []byte) { v = memsim.GetF64(fr, memsim.Offset(a)) })
	return v
}

// WriteF64 implements platform.Substrate.
func (d *DSM) WriteF64(nodeID int, a memsim.Addr, v float64) {
	d.access(nodeID).writeRun(memsim.PageOf(a), 1, 1, func(fr []byte) { memsim.PutF64(fr, memsim.Offset(a), v) })
}

// ReadI64 implements platform.Substrate.
func (d *DSM) ReadI64(nodeID int, a memsim.Addr) (v int64) {
	d.access(nodeID).readRun(memsim.PageOf(a), 1, 1, func(fr []byte) { v = memsim.GetI64(fr, memsim.Offset(a)) })
	return v
}

// WriteI64 implements platform.Substrate.
func (d *DSM) WriteI64(nodeID int, a memsim.Addr, v int64) {
	d.access(nodeID).writeRun(memsim.PageOf(a), 1, 1, func(fr []byte) { memsim.PutI64(fr, memsim.Offset(a), v) })
}

// ReadBytes implements platform.Substrate; the span may cross pages.
func (d *DSM) ReadBytes(nodeID int, a memsim.Addr, buf []byte) {
	n := d.access(nodeID)
	memsim.ByteRuns(a, len(buf), func(p memsim.PageID, off, chunk int) {
		out := buf[:chunk]
		n.readRun(p, 1, 1+chunk/memsim.WordSize, func(fr []byte) { copy(out, fr[off:]) })
		buf = buf[chunk:]
	})
}

// WriteBytes implements platform.Substrate; the span may cross pages.
func (d *DSM) WriteBytes(nodeID int, a memsim.Addr, data []byte) {
	n := d.access(nodeID)
	memsim.ByteRuns(a, len(data), func(p memsim.PageID, off, chunk int) {
		in := data[:chunk]
		n.writeRun(p, 1, 1+chunk/memsim.WordSize, func(fr []byte) { copy(fr[off:], in) })
		data = data[chunk:]
	})
}

// storeBarrier drains the posted-write FIFO.
func (n *node) storeBarrier() {
	if n.postedOut > 0 {
		n.dsm.Clocks[n.id].AdvanceCat(vclock.CatNetwork, n.dsm.Cost.SAN.StoreBarrierNs)
		n.postedOut = 0
	}
}

// collectNotices empties the interval's written-page set, and with it
// every window slot's written bit.
func (n *node) collectNotices() []memsim.PageID {
	n.gen++
	out := make([]memsim.PageID, 0, len(n.written))
	for p := range n.written {
		out = append(out, p)
		delete(n.written, p)
	}
	return out
}

// invalidate drops cached copies of noticed pages.
func (n *node) invalidate(pages []memsim.PageID) {
	for _, p := range pages {
		delete(n.readCount, p)
		if cp, ok := n.cache[p]; ok {
			n.drop(cp)
			n.stats.Invalidations++
		}
	}
}

// Fence implements platform.Substrate: drain posted writes and drop the
// whole read cache.
func (d *DSM) Fence(nodeID int) {
	n := d.access(nodeID)
	n.storeBarrier()
	for _, cp := range n.cache {
		n.drop(cp)
		n.stats.Invalidations++
	}
	for p := range n.readCount {
		delete(n.readCount, p)
	}
}

// FlushInterval implements hsync.Engine: drain
// this node's posted writes and return the interval's write notices. Call
// from the node's own goroutine.
func (d *DSM) FlushInterval(nodeID int) []memsim.PageID {
	n := d.access(nodeID)
	n.storeBarrier()
	return n.collectNotices()
}

// InvalidatePages implements hsync.Engine: drop
// this node's cached copies of the given pages.
func (d *DSM) InvalidatePages(nodeID int, pages []memsim.PageID) {
	d.access(nodeID).invalidate(pages)
}
