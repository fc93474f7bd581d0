// Package ivy implements an IVY-style write-invalidate software DSM with
// distributed dynamic ownership (Li & Hudak's distributed-manager design:
// no central metadata server; ownership migrates to writers). It is the
// framework's second consistency engine (§4.5, ROADMAP items 1 and 4),
// declaring Sequential consistency where the scope engine declares Scope.
//
// Every page has exactly one owner holding the authoritative copy and the
// copyset of nodes with read copies. A read fault chases the requester's
// probable-owner hint chain to the owner, which adds the requester to the
// copyset and returns the page. A write fault transfers ownership: the
// old owner relinquishes its copy, hands over page + copyset, and the new
// owner synchronously invalidates every copyset member before the write
// performs — that synchronous completion is what yields sequential
// consistency, and what makes the engine so much noisier than the relaxed
// protocols (the ablation the paper's §4.5 model menu exists for). Hint
// chains are compressed on every hop (requester, granting node, and
// invalidated nodes all repoint to the new owner), the Li & Hudak
// argument that chains always terminate at the current owner.
//
// Concurrency contract: each node's accessors run on that node's own
// goroutine; protocol handlers execute on the caller's goroutine against
// the target node's state (amsg's convention) and take the target node's
// mutex. A node never holds its mutex across a network call: ownership
// installs set a pending flag instead, and handlers wait on the node's
// condition variable until the invalidation round completes, so requests
// observe either the pre-transfer or post-transfer state, never the
// middle.
//
// Reads take no lock. A page buffer is written only by its current
// owner's own goroutine: a read copy is a fresh reply buffer nobody writes
// again, a grant copies the page out and forgets the buffer, an
// invalidation forgets it. So each node keeps a window of the buffers it
// may read (owner goroutine only) and an atomic revoke epoch that every
// handler bumps, under the node's mutex, when it takes read permission
// away. A read whose window entry still carries the current epoch loads
// its word from the buffer; it linearizes at the epoch load — a writer
// performs only after its synchronous invalidation bumped the epoch, so a
// read that saw the old epoch is ordered before that write, and one that
// sees the new epoch misses and faults. Writes, faults and handlers take
// the mutex.
//
// Ownership chase lengths under contention depend on goroutine
// scheduling, so message counts and virtual times of contended runs are
// schedule-dependent; checksums are not (the protocol is coherent under
// every schedule).
package ivy

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hamster/internal/amsg"
	"hamster/internal/consengine"
	"hamster/internal/hsync"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Active-message kinds. Offset high above swdsm's kinds so both engines
// can share one coalesced layer without collision.
const (
	kindReadPage amsg.Kind = iota + 41
	kindWritePage
	kindInvalidate
)

// Config parameterizes an IVY cluster: the cluster-shape fields of
// swdsm.Config (the engine always builds its own network, which core
// adopts for coalesced user messaging), so multidsm composes either engine
// the same way.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Params is the cost model; zero value means machine.Default().
	Params machine.Params
	// Space optionally supplies a shared global address space (multi-DSM
	// composition, §6). When nil the DSM owns a private space.
	Space *memsim.Space
	// Clocks optionally supplies shared per-node clocks (multi-DSM
	// composition). Length must equal Nodes.
	Clocks []*vclock.Clock
	// Topology places the nodes in a switch fabric (see simnet.Topology);
	// the zero value is the flat legacy network. The DSM's synchronization
	// cost arithmetic follows it too.
	Topology simnet.Topology
}

// pstate is the coherence state of a page at one node. The values are
// ordered by the permission they grant (selfFault compares them).
type pstate uint8

const (
	// pHint: no local copy; the entry only carries the probable-owner
	// hint left behind by an invalidation or an ownership grant.
	pHint pstate = iota
	// pRead: valid read copy (registered in the owner's copyset).
	pRead
	// pOwned: authoritative copy plus the copyset.
	pOwned
)

// ipage is one page's local protocol state. Guarded by the node's mutex.
type ipage struct {
	state pstate
	// data is the page buffer (pRead, pOwned). Its bytes are written only
	// by this node's own goroutine while it owns the page.
	data    []byte
	copyset map[int]struct{} // pOwned
	hint    int              // pHint, pRead: probable owner (-1 = use home)
	// pending is true while the owner runs its synchronous invalidation
	// round; handlers wait on the node's cond until it clears, so
	// ownership never transfers mid-round.
	pending bool
	// gen counts invalidations of this entry. A read fault that raced
	// with an invalidation (reply generated before, arriving after)
	// detects the stale reply by the bump and refetches.
	gen uint64
}

// DSM is one IVY cluster. Synchronization is the embedded manager over
// the same Ethernet wire as the scope engine's (so cross-engine
// comparisons isolate the protocols' data paths, not different sync
// models), with no engine attached: memory is coherent at every instant
// (writes invalidate synchronously), so locks and barriers are pure
// ordering devices and their messages carry no notices. Above the
// manager's threshold the lock tokens migrate along probable-holder
// chains — this engine's page-ownership machinery applied to locks.
type DSM struct {
	platform.Base
	*hsync.Manager
	layer *amsg.Layer
	nodes []*node

	rec *perfmon.Recorder // protocol event recorder; nil until attached
}

type node struct {
	id  int
	dsm *DSM

	// Owner-goroutine state, never locked: the CPU-cache model for local
	// references, the read window (page buffers this node may read, valid
	// while stored under the current revoke epoch), and every counter
	// except invalidations.
	pcache *machine.PageCache
	window memsim.Window[[]byte]
	stats  platform.Stats

	// revoke counts the times a handler took read permission for some page
	// away from this node (invalidation, ownership grant). Bumped only
	// under mu; the owner goroutine loads it without.
	revoke atomic.Uint64

	// mu guards pages and invalidations: protocol handlers run on other
	// goroutines against this state. cond signals pending-flag clears.
	mu            sync.Mutex
	cond          *sync.Cond
	pages         map[memsim.PageID]*ipage
	invalidations uint64
}

// New builds an IVY cluster.
func New(cfg Config) (*DSM, error) {
	base, err := platform.NewBase("ivy", cfg.Nodes, cfg.Params, cfg.Space, cfg.Clocks)
	if err != nil {
		return nil, err
	}
	d := &DSM{Base: base, nodes: make([]*node, cfg.Nodes)}
	d.layer = amsg.New(simnet.NewTopo(base.Cost.Ethernet, d.Clocks, cfg.Topology), base.Cost.Ethernet)
	for i := range d.nodes {
		n := &node{
			id:     i,
			dsm:    d,
			pcache: machine.NewPageCache(base.Cost.Bus.CachePages),
			pages:  make(map[memsim.PageID]*ipage),
		}
		n.cond = sync.NewCond(&n.mu)
		d.nodes[i] = n
		d.registerHandlers(n)
	}
	topo := d.layer.Network().Topology()
	d.Manager = hsync.NewManager(hsync.Config{
		Name: "ivy", Clocks: d.Clocks, Topology: topo,
		Wire:        hsync.EthernetWire(base.Cost.Ethernet, topo),
		LiveRelease: d.layer.Network().CallFaultsActive,
	})
	return d, nil
}

// entry returns (creating if needed) the page's state record. Call with
// n.mu held.
func (n *node) entry(p memsim.PageID) *ipage {
	e := n.pages[p]
	if e == nil {
		e = &ipage{hint: -1}
		n.pages[p] = e
	}
	return e
}

// bootstrapOwned installs the zeroed initial owned copy at the page's
// home. Call with n.mu held and only when n is the home and the page has
// never been granted away.
func (n *node) bootstrapOwned(p memsim.PageID) *ipage {
	e := n.entry(p)
	e.state = pOwned
	e.data = make([]byte, memsim.PageSize)
	e.copyset = make(map[int]struct{})
	return e
}

// pageHandler is the prologue the read- and write-page handlers share:
// under n.mu, find the page's owned entry — bootstrapping an untouched
// page at its home, which becomes initial owner on the first request —
// and wait out any invalidation round before grant builds the reply. A
// node that does not own the page answers with its best hint instead.
func (n *node) pageHandler(grant func(e *ipage, from int) []byte) amsg.Handler {
	return func(from amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		p := memsim.PageID(binary.LittleEndian.Uint64(req))
		n.mu.Lock()
		defer n.mu.Unlock()
		for {
			e := n.pages[p]
			if e == nil && n.dsm.Mem.Home(p) == n.id {
				e = n.bootstrapOwned(p)
			}
			if e == nil || e.state != pOwned {
				return hintReply(n.hintLocked(p)), 0
			}
			if !e.pending {
				return grant(e, int(from)), n.dsm.Cost.CPU.PageCopyNs
			}
			n.cond.Wait()
		}
	}
}

func (d *DSM) registerHandlers(n *node) {
	id := simnet.NodeID(n.id)
	d.layer.Register(id, kindReadPage, n.pageHandler(func(e *ipage, from int) []byte {
		e.copyset[from] = struct{}{}
		out := make([]byte, 1+memsim.PageSize)
		out[0] = 1
		copy(out[1:], e.data)
		return out
	}))
	d.layer.Register(id, kindWritePage, n.pageHandler(func(e *ipage, from int) []byte {
		// Grant: relinquish the copy, hand over page + copyset (minus the
		// requester), repoint the hint at the new owner.
		out := make([]byte, 1+4+8*len(e.copyset)+memsim.PageSize)
		out[0] = 1
		members := 0
		for m := range e.copyset {
			if m == from {
				continue
			}
			binary.LittleEndian.PutUint64(out[5+8*members:], uint64(m))
			members++
		}
		binary.LittleEndian.PutUint32(out[1:], uint32(members))
		copy(out[5+8*members:], e.data)
		out = out[:5+8*members+memsim.PageSize]
		e.state = pHint
		e.data = nil
		e.copyset = nil
		e.hint = from
		e.gen++
		n.revoke.Add(1)
		return out
	}))
	d.layer.Register(id, kindInvalidate, func(from amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		p := memsim.PageID(binary.LittleEndian.Uint64(req))
		owner := int(binary.LittleEndian.Uint64(req[8:]))
		n.mu.Lock()
		defer n.mu.Unlock()
		e := n.entry(p)
		if e.state == pOwned {
			panic(fmt.Sprintf("ivy: node %d received invalidation for page %d it owns (from %d)", n.id, p, from))
		}
		if e.state == pRead {
			n.dropReadCopy(e)
		}
		e.hint = owner
		e.gen++
		return nil, 0
	})
}

// dropReadCopy takes a read copy away: the entry keeps only its hint and
// the revoke epoch moves on, so the owner goroutine's window stops
// serving the buffer. Call with n.mu held.
func (n *node) dropReadCopy(e *ipage) {
	e.state = pHint
	e.data = nil
	n.revoke.Add(1)
	n.invalidations++
}

// hintLocked computes the best probable-owner hint this node can give for
// a page it does not own. Call with n.mu held.
func (n *node) hintLocked(p memsim.PageID) int {
	if e := n.pages[p]; e != nil && e.hint >= 0 {
		return e.hint
	}
	if h := n.dsm.Mem.Home(p); h >= 0 {
		return h
	}
	return n.id
}

func hintReply(hint int) []byte {
	out := make([]byte, 9)
	copy(out, []byte{0})
	binary.LittleEndian.PutUint64(out[1:], uint64(hint))
	return out
}

// nextHop picks the next node to ask for a page: the local hint when one
// exists, else the page's home (first-touch assigned to the caller).
func (n *node) nextHop(p memsim.PageID) int {
	n.mu.Lock()
	e := n.pages[p]
	if e != nil && e.state != pOwned && e.hint >= 0 {
		h := e.hint
		n.mu.Unlock()
		return h
	}
	n.mu.Unlock()
	return n.dsm.Mem.HomeFor(p, n.id)
}

// pageReq encodes the one-word request shared by the read and write
// faults. The encoder's pooled buffer is returned by the caller's
// enc.Free once the call completes.
func pageReq(enc *amsg.Enc, p memsim.PageID) []byte {
	return enc.U64(uint64(p)).Bytes()
}

// selfFault resolves a fault whose next hop is the faulting node itself:
// this node is the page's home and holds no hint elsewhere. An untouched
// page makes it the initial owner. An existing entry means a handler
// bootstrapped the page between the accessor's check and this fault; the
// fault is over when that entry already grants the wanted permission
// (pRead: any copy, pOwned: ownership) — nextHop would name this node
// again forever — and is retried along the entry's new hint otherwise.
func (n *node) selfFault(p memsim.PageID, want pstate) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.pages[p]
	if e == nil {
		n.bootstrapOwned(p)
		return true
	}
	return e.state >= want
}

// chase is the hint-chain walk both faults share: ask the next hop for a
// read copy (want pRead) or ownership (pOwned), follow hint replies, and
// return the granting node, its reply and the entry's invalidation count
// from before the request — or ok=false when the fault resolved at this
// node (selfFault) and there is nothing to install.
func (n *node) chase(p memsim.PageID, want pstate) (target int, resp []byte, gen uint64, ok bool) {
	kind, verb := kindReadPage, "fetch"
	if want == pOwned {
		kind, verb = kindWritePage, "take ownership of"
	}
	for {
		target = n.nextHop(p)
		if target == n.id {
			if n.selfFault(p, want) {
				return target, nil, 0, false
			}
			continue // a handler granted the page away meanwhile
		}
		n.mu.Lock()
		if e := n.pages[p]; e != nil {
			gen = e.gen
		}
		n.mu.Unlock()
		n.stats.ProtocolMsgs++
		enc := amsg.GetEnc()
		resp, err := n.dsm.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(target), kind, pageReq(enc, p))
		enc.Free()
		if err != nil {
			panic(fmt.Sprintf("ivy: node %d cannot %s page %d from node %d: %v", n.id, verb, p, target, err))
		}
		if resp[0] == 1 {
			return target, resp, gen, true
		}
		// A hint back at us is stale; the retry goes via our own state.
		if hint := int(binary.LittleEndian.Uint64(resp[1:])); hint != n.id {
			n.mu.Lock()
			n.entry(p).hint = hint
			n.mu.Unlock()
		}
	}
}

// readFault chases the hint chain to the owner and installs a read copy.
func (n *node) readFault(p memsim.PageID) {
	d := n.dsm
	clk := d.Clocks[n.id]
	t0 := clk.Now()
	for {
		target, resp, gen, ok := n.chase(p, pRead)
		if !ok {
			return
		}
		clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.PageCopyNs)
		n.mu.Lock()
		e := n.entry(p)
		if e.gen != gen {
			// Invalidated between reply generation and install: the copy
			// is already stale, refetch from the new owner.
			n.mu.Unlock()
			continue
		}
		e.state = pRead
		e.data = resp[1:]
		e.hint = target
		n.window.Put(p, n.revoke.Load(), e.data)
		n.mu.Unlock()
		n.stats.PageFaults++
		if rec := d.rec; rec != nil && rec.Enabled() {
			rec.Record(n.id, perfmon.EvPageFault, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(target))
		}
		return
	}
}

// writeFault chases the hint chain, takes ownership, and synchronously
// invalidates the inherited copyset before returning.
func (n *node) writeFault(p memsim.PageID) {
	d := n.dsm
	clk := d.Clocks[n.id]
	t0 := clk.Now()
	target, resp, _, ok := n.chase(p, pOwned)
	if !ok {
		return
	}
	count := int(binary.LittleEndian.Uint32(resp[1:]))
	members := make([]int, count)
	for i := 0; i < count; i++ {
		members[i] = int(binary.LittleEndian.Uint64(resp[5+8*i:]))
	}
	slices.Sort(members)
	clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.PageCopyNs)
	n.mu.Lock()
	e := n.entry(p)
	e.state = pOwned
	e.data = resp[5+8*count:]
	e.copyset = make(map[int]struct{})
	e.hint = -1
	e.pending = len(members) > 0
	n.window.Put(p, n.revoke.Load(), e.data)
	n.mu.Unlock()
	n.stats.PageFaults++
	n.stats.HomeMigrations++ // ownership arrivals
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvHomeMigrate, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(target))
	}
	if len(members) > 0 {
		n.invalidateMembers(p, members)
		n.mu.Lock()
		e.pending = false
		n.cond.Broadcast()
		n.mu.Unlock()
	}
}

// invalidateMembers synchronously drops every copyset member's read copy
// (sorted order for determinism). Call without n.mu held; the entry's
// pending flag must already exclude concurrent transfers.
func (n *node) invalidateMembers(p memsim.PageID, members []int) {
	d := n.dsm
	clk := d.Clocks[n.id]
	t0 := clk.Now()
	for _, m := range members {
		enc := amsg.GetEnc()
		req := enc.U64(uint64(p)).U64(uint64(n.id)).Bytes()
		n.stats.ProtocolMsgs++
		if _, err := d.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(m), kindInvalidate, req); err != nil {
			panic(fmt.Sprintf("ivy: node %d cannot invalidate page %d at node %d (a stale copy would survive): %v", n.id, p, m, err))
		}
		enc.Free()
	}
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvInvalidate, t0, vclock.Since(t0, clk.Now()), uint64(len(members)), uint64(p))
	}
}

// readPage performs the bookkeeping of one read of page p — the access
// charge for costWords words, the CPU-cache touch, reads counted — and
// returns the page's bytes, valid for the caller's immediate loads.
func (n *node) readPage(p memsim.PageID, costWords, reads int) []byte {
	n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.CPU.AccessNs*vclock.Duration(costWords))
	n.touchLocal(p)
	n.stats.Reads += uint64(reads)
	if buf := n.window.Get(p, n.revoke.Load()); buf != nil {
		return *buf
	}
	return n.readableFrame(p)
}

// readableFrame is readPage's window miss: it finds (faulting as needed)
// the valid local copy under n.mu and leaves it in the window.
func (n *node) readableFrame(p memsim.PageID) []byte {
	for {
		n.mu.Lock()
		if e := n.pages[p]; e != nil && e.state != pHint {
			data := e.data
			n.window.Put(p, n.revoke.Load(), data)
			n.mu.Unlock()
			return data
		}
		n.mu.Unlock()
		n.readFault(p)
	}
}

// writableFrame returns the owned page entry with an empty copyset, n.mu
// HELD; the caller writes and unlocks. Running the invalidation round
// before the write performs is the sequential-consistency guarantee.
func (n *node) writableFrame(p memsim.PageID) *ipage {
	for {
		n.mu.Lock()
		e := n.pages[p]
		if e != nil && e.state == pOwned {
			if len(e.copyset) > 0 {
				n.invalRound(p, e)
			}
			return e
		}
		n.mu.Unlock()
		n.writeFault(p)
	}
}

// invalRound runs the owner-write invalidation: snapshot and clear the
// copyset under the pending flag, drop every member's copy, resume. Call
// with n.mu held; returns with n.mu held and the entry still owned.
func (n *node) invalRound(p memsim.PageID, e *ipage) {
	e.pending = true
	members := make([]int, 0, len(e.copyset))
	for m := range e.copyset {
		members = append(members, m)
	}
	clear(e.copyset)
	slices.Sort(members)
	n.mu.Unlock()
	n.invalidateMembers(p, members)
	n.mu.Lock()
	e.pending = false
	n.cond.Broadcast()
}

// touchLocal charges the CPU-cache model for one local page reference.
// Kept apart from the access charge so that it stays small enough to
// inline into readPage and writePage (one call less per simulated word).
func (n *node) touchLocal(p memsim.PageID) {
	if !n.pcache.Touch(uint64(p)) {
		n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.Bus.MissCost())
		n.stats.CacheMisses++
	}
}

// writePage is readPage's counterpart for writes: same bookkeeping, but
// the owned entry comes back with n.mu HELD (see writableFrame); the
// caller stores and unlocks.
func (n *node) writePage(p memsim.PageID, costWords, writes int) *ipage {
	n.dsm.Clocks[n.id].AdvanceCat(vclock.CatMemory, n.dsm.Cost.CPU.AccessNs*vclock.Duration(costWords))
	n.touchLocal(p)
	n.stats.Writes += uint64(writes)
	return n.writableFrame(p)
}

func (d *DSM) access(nodeID int) *node {
	if nodeID < 0 || nodeID >= len(d.nodes) {
		panic(fmt.Sprintf("ivy: invalid node %d", nodeID))
	}
	return d.nodes[nodeID]
}

// Kind implements platform.Substrate.
func (d *DSM) Kind() platform.Kind { return platform.SWDSM }

// Layer exposes the active-message layer: core adopts it for coalesced
// user messaging, and the fault campaigns install plans on its network.
func (d *DSM) Layer() *amsg.Layer { return d.layer }

// Caps implements platform.Substrate.
func (d *DSM) Caps() platform.Caps {
	return platform.Caps{
		PageCaching:      true,
		ConsistencyModel: "sequential",
		Placement:        platform.Policies(),
	}
}

// EngineName implements consengine.Engine.
func (d *DSM) EngineName() string { return consengine.IVYName }

// DeclaredModel implements consengine.Engine: synchronous write
// invalidation makes every execution sequentially consistent.
func (d *DSM) DeclaredModel() consengine.Model { return consengine.Sequential }

// NodeStats implements platform.Substrate. HomeMigrations counts
// ownership arrivals. Call only while the node's program is quiescent.
func (d *DSM) NodeStats(node int) platform.Stats {
	n := d.nodes[node]
	s := d.SyncStats(node, n.stats)
	n.mu.Lock()
	s.Invalidations = n.invalidations
	n.mu.Unlock()
	return s
}

// ResetStats implements platform.Substrate. Quiescent use only.
func (d *DSM) ResetStats(node int) {
	n := d.nodes[node]
	n.stats = platform.Stats{}
	d.ResetSyncStats(node)
	n.mu.Lock()
	n.invalidations = 0
	n.mu.Unlock()
}

// SetRecorder implements platform.Substrate.
func (d *DSM) SetRecorder(rec *perfmon.Recorder) {
	d.rec = rec
	d.Manager.SetRecorder(rec)
	d.layer.SetRecorder(rec)
}

// Close implements platform.Substrate.
func (d *DSM) Close() { d.layer.Network().Close() }

// ReadF64 implements platform.Substrate.
func (d *DSM) ReadF64(nodeID int, a memsim.Addr) float64 {
	return memsim.GetF64(d.access(nodeID).readPage(memsim.PageOf(a), 1, 1), memsim.Offset(a))
}

// WriteF64 implements platform.Substrate.
func (d *DSM) WriteF64(nodeID int, a memsim.Addr, v float64) {
	n := d.access(nodeID)
	e := n.writePage(memsim.PageOf(a), 1, 1)
	memsim.PutF64(e.data, memsim.Offset(a), v)
	n.mu.Unlock()
}

// ReadI64 implements platform.Substrate.
func (d *DSM) ReadI64(nodeID int, a memsim.Addr) int64 {
	return memsim.GetI64(d.access(nodeID).readPage(memsim.PageOf(a), 1, 1), memsim.Offset(a))
}

// WriteI64 implements platform.Substrate.
func (d *DSM) WriteI64(nodeID int, a memsim.Addr, v int64) {
	n := d.access(nodeID)
	e := n.writePage(memsim.PageOf(a), 1, 1)
	memsim.PutI64(e.data, memsim.Offset(a), v)
	n.mu.Unlock()
}

// ReadBytes implements platform.Substrate; the span may cross pages.
func (d *DSM) ReadBytes(nodeID int, a memsim.Addr, buf []byte) {
	n := d.access(nodeID)
	memsim.ByteRuns(a, len(buf), func(p memsim.PageID, off, chunk int) {
		data := n.readPage(p, 1+chunk/memsim.WordSize, 1)
		copy(buf[:chunk], data[off:off+chunk])
		buf = buf[chunk:]
	})
}

// WriteBytes implements platform.Substrate; the span may cross pages.
func (d *DSM) WriteBytes(nodeID int, a memsim.Addr, data []byte) {
	n := d.access(nodeID)
	memsim.ByteRuns(a, len(data), func(p memsim.PageID, off, chunk int) {
		e := n.writePage(p, 1+chunk/memsim.WordSize, 1)
		copy(e.data[off:off+chunk], data[:chunk])
		n.mu.Unlock()
		data = data[chunk:]
	})
}
