package swdsm

import (
	"fmt"
	"slices"

	"hamster/internal/amsg"
	"hamster/internal/hsync"
	"hamster/internal/memsim"
	"hamster/internal/notices"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// syncConfig describes this cluster to the synchronization manager: an
// Ethernet wire whose messages carry write notices, this engine's two
// consistency hooks, and the three places where the protocol — not
// synchronization — has something to add at a boundary.
func (d *DSM) syncConfig() hsync.Config {
	topo := d.layer.Network().Topology()
	wire := hsync.EthernetWire(d.Cost.Ethernet, topo)
	wire.Notices = true
	if d.agg.Batch {
		wire.Piggyback = d.piggybackNoticeCost
	}
	cfg := hsync.Config{
		Name: "swdsm", Clocks: d.Clocks, Wire: wire, Topology: topo,
		Engine: d,
	}
	if d.protocol == EagerRC {
		// Eager RC: one global board, so any acquire applies every pending
		// notice regardless of which lock published it.
		cfg.Board = notices.NewBoard()
		cfg.Published = d.broadcastNotices
	}
	if d.migrateAfter > 0 {
		cfg.AfterBarrier = d.migrationPhase
	}
	return cfg
}

// broadcastNotices is eager RC's release: the notices go toward every
// peer at once, one message (and one interrupt) per peer, priced for
// where each peer sits — the eagerness the lazy protocols were invented
// to avoid.
func (d *DSM) broadcastNotices(nodeID int, pages []memsim.PageID) {
	var sum vclock.Duration
	for m := range d.nodes {
		if m != nodeID {
			wire := d.msg(nodeID, m, hsync.NoticeBytes(len(pages)))
			sum += wire
			d.Clocks[m].Steal(d.Clocks[nodeID].OwnNow()+vclock.Time(wire), d.Cost.Ethernet.HandlerNs)
		}
	}
	d.Clocks[nodeID].AdvanceCat(vclock.CatNetwork, sum)
	d.nodes[nodeID].stats.ProtocolMsgs += uint64(len(d.nodes) - 1)
}

// migrationPhase is the barrier's home-migration tail (when enabled): a
// second rendezvous opens a quiescent window in which the winning nodes
// retarget page homes.
func (d *DSM) migrationPhase(nodeID int, epoch uint64) {
	const manager = 0
	n, clk := d.nodes[nodeID], d.Clocks[nodeID]
	d.migration.depositWishes(epoch, nodeID, n.migrationWishes())
	arrive := d.msg(nodeID, manager, hsync.NoticeBytes(0))
	if nodeID == manager {
		arrive = amsg.LocalCallNs
	} else {
		n.stats.ProtocolMsgs++
	}
	d.vbMig.Arrive(clk, arrive, 0)
	if d.migration.peekAny(epoch) {
		n.performMigrations(d.migration.grants(epoch, nodeID))
		if nodeID != manager {
			n.stats.ProtocolMsgs++
		}
		d.vbMig.Arrive(clk, arrive, 0)
	}
	d.migration.finish(epoch, len(d.nodes))
}

// invalidate drops cached copies of the noticed pages. A page that is
// locally dirty (false sharing across scopes) is flushed home first so no
// modification is lost — the multiple-writer guarantee.
func (n *node) invalidate(pages []memsim.PageID) {
	if n.dsm.dropInval {
		// Config.DropInvalidations: the deliberately broken engine the
		// conformance harness's negative test must catch. Stale copies
		// (and unflushed false-sharing diffs) survive synchronization.
		return
	}
	n.bumpGen()
	for _, p := range pages {
		cp, ok := n.cache[p]
		if !ok {
			continue
		}
		if cp.Ext.twin != nil {
			n.flushPage(p, cp)
		}
		n.notePrefetchDrop(p)
		n.lru.Remove(cp)
		delete(n.cache, p)
		delete(n.dirty, p)
		cpagePool.Put(cp)
		n.stats.Invalidations++
	}
}

// flushPage diffs one dirty page against its twin and applies the diff at
// the home. The page stays cached and clean.
func (n *node) flushPage(p memsim.PageID, cp *cpage) {
	d := n.dsm
	clk := d.Clocks[n.id]
	t0 := clk.Now()
	clk.AdvanceCat(vclock.CatProtocol, d.Cost.CPU.DiffScanNs)
	diff := buildDiff(cp.Data, cp.Ext.twin)
	pagestore.PutPage(cp.Ext.twin)
	cp.Ext.twin = nil
	delete(n.dirty, p)
	if len(diff) == 0 {
		putDiff(diff)
		return
	}
	home := d.Mem.Home(p)
	// Enc.Blob copies the diff into the request, so the scratch buffer can
	// be recycled as soon as the call returns — and the encoder with it.
	enc := amsg.GetEnc()
	req := enc.U64(uint64(p)).Blob(diff).Bytes()
	n.stats.ProtocolMsgs++
	if _, err := d.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(home), kindApplyDiff, req); err != nil {
		// A diff that cannot reach the authoritative copy means writes
		// are lost; no safe degradation exists, so stop with a diagnostic.
		panic(fmt.Sprintf("swdsm: node %d cannot flush page %d to home node %d (%d modified bytes would be lost): %v",
			n.id, p, home, len(diff), err))
	}
	enc.Free()
	n.stats.DiffsCreated++
	n.stats.DiffBytes += uint64(len(diff))
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvDiffCreate, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(len(diff)))
	}
	putDiff(diff)
	cp.Ext.diffStreak++
}

// flushAll flushes every dirty cached page home and returns the write
// notices for this interval: all pages this node modified, cached or
// home-resident. Pages are flushed in sorted order, never map order: the
// fault-injection draw streams pair each transmission on a link with a
// fixed fate position, so the sequence of flush calls (and their diff
// sizes) must be a pure function of program state for seeded campaigns
// to replay bit-identically.
func (n *node) flushAll() []memsim.PageID {
	n.bumpGen()
	out := make([]memsim.PageID, 0, len(n.dirty)+len(n.homeDirty))
	for p := range n.dirty {
		out = append(out, p)
	}
	slices.Sort(out)
	if n.dsm.agg.Batch {
		n.flushBatched(out)
	} else {
		for _, p := range out {
			if cp, ok := n.cache[p]; ok && cp.Ext.twin != nil {
				n.flushPage(p, cp)
			}
		}
	}
	homeStart := len(out)
	for p := range n.homeDirty {
		out = append(out, p)
		delete(n.homeDirty, p)
		n.markCkptDirty(p)
	}
	slices.Sort(out[homeStart:])
	return out
}

// Fence implements platform.Substrate: flush all local modifications home
// and drop every cached page, forcing refetches. Together with every other
// node fencing, this yields sequential-consistency-like behavior (at great
// cost — exactly why relaxed models exist).
func (d *DSM) Fence(nodeID int) {
	n := d.access(nodeID)
	n.bumpGen()
	n.flushAll()
	cached := make([]memsim.PageID, 0, len(n.cache))
	for p := range n.cache {
		cached = append(cached, p)
	}
	slices.Sort(cached) // deterministic flush order (see flushAll)
	for _, p := range cached {
		cp := n.cache[p]
		if cp.Ext.twin != nil {
			n.flushPage(p, cp)
		}
		n.notePrefetchDrop(p)
		n.lru.Remove(cp)
		delete(n.cache, p)
		cpagePool.Put(cp)
		n.stats.Invalidations++
	}
	for p := range n.dirty {
		delete(n.dirty, p)
	}
}

// FlushInterval implements hsync.Engine: flush
// this node's interval modifications home and return the write notices —
// what a synchronization manager (this cluster's own, or a multi-DSM
// composition's, §6) calls at a release point. Call from the node's own
// goroutine.
func (d *DSM) FlushInterval(nodeID int) []memsim.PageID {
	return d.access(nodeID).flushAll()
}

// InvalidatePages implements hsync.Engine: drop
// this node's cached copies of the given pages (flushing dirty ones
// first) — the acquire-side hook. Pages this engine does not cache are
// ignored.
func (d *DSM) InvalidatePages(nodeID int, pages []memsim.PageID) {
	d.access(nodeID).invalidate(pages)
}
