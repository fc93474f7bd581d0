package swdsm

// Protocol message aggregation (the coalesced-messaging claim of §3.3
// applied to the DSM protocol itself, §4.3): per-message software overhead
// dominates the Fast Ethernet cost model (SendSW+RecvSW = 50µs against
// 80ns/byte), so the aggregation layer trades many small protocol messages
// for few large ones.
//
// Three mechanisms, all gated by Config.Aggregation:
//
//  1. Batched diff flush: at release/barrier/fence time every dirty page's
//     diff destined for the same home travels in one kindApplyDiffBatch
//     call — one request/ack plus the summed payload instead of one round
//     trip per page.
//  2. Write-notice piggybacking: the notice list of a scope rides the
//     lock-grant reply (and the barrier-release broadcast) that the
//     protocol sends anyway, so only the payload bytes cost anything; the
//     separate notice message of the baseline protocol disappears.
//  3. Adaptive sequential prefetch: a per-node stride tracker watches the
//     miss stream, and once it turns sequential fetches a run of up to
//     maxPrefetchDegree same-home pages in one kindFetchPages call.
//     Mispredictions (prefetched pages evicted or invalidated unused)
//     halve the degree and impose a cooldown, so an irregular phase cannot
//     keep paying for wasted transfers.
//
// The zero-value Aggregation is the off mode and is bit-identical to the
// baseline protocol: same messages in the same order, same virtual times
// (enforced by TestAggregationOffIdentity against the committed BENCH
// files). With aggregation on, message sequences remain a pure function of
// program state — batches and prefetch runs assemble pages in sorted
// (ascending) order — so seeded fault campaigns still replay
// bit-identically (the draw streams are positional per link).

import (
	"fmt"
	"slices"

	"hamster/internal/amsg"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Batched-protocol active-message kinds (the singleton kinds live in
// swdsm.go and migrate.go: kindFetchPage=1, kindApplyDiff=2, kindMigrate=3).
const (
	// kindApplyDiffBatch carries [count u32] then per page [page u64]
	// [diff blob], pages ascending; the home applies each diff in order.
	kindApplyDiffBatch amsg.Kind = 4
	// kindFetchPages carries [count u32] then [page u64]..., pages
	// ascending and all homed at the target; the reply is the concatenated
	// page frames.
	kindFetchPages amsg.Kind = 5
)

// maxPrefetchDegree caps a prefetch run.
const maxPrefetchDegree = 8

// Prefetch policy constants: a miss stream must look sequential for
// prefetchMinStreak consecutive faults before the first speculative fetch,
// and a tracker that mispredicted down to degree 1 sits out
// prefetchCooldown faults before trying again.
const (
	prefetchMinStreak = 2
	prefetchCooldown  = 16
)

// Aggregation configures the protocol aggregation layer. The zero value
// disables everything and is bit-identical to the baseline protocol.
type Aggregation struct {
	// Batch enables batched diff flushes and write-notice piggybacking
	// (the two are one mechanism economically: both replace per-item
	// messages with payload riding on traffic that must flow anyway).
	Batch bool
	// Prefetch enables adaptive sequential page prefetch.
	Prefetch bool
}

// Enabled reports whether any aggregation mechanism is on.
func (a Aggregation) Enabled() bool { return a.Batch || a.Prefetch }

// prefetcher is one node's stride tracker. Owned exclusively by the node's
// goroutine, like the page cache it feeds.
type prefetcher struct {
	last   memsim.PageID // page of the most recent demand fault
	streak int           // consecutive +1-stride faults observed
	degree int           // current run cap (adaptive, 1..maxPrefetchDegree)
	hitRun int           // prefetched pages consumed since the last waste
	cool   int           // faults to sit out after collapsing to degree 1

	// pending tracks installed-but-unreferenced prefetched pages: a first
	// access moves one to the hit column, an eviction or invalidation
	// before that moves it to the waste column.
	pending map[memsim.PageID]struct{}
}

func newPrefetcher() *prefetcher {
	return &prefetcher{degree: 2, pending: make(map[memsim.PageID]struct{})}
}

// registerAggHandlers installs the home-side handlers of the batched
// protocol. They are registered unconditionally (the kinds are part of the
// wire protocol whether or not this node's peers aggregate), but never
// fire unless a peer sends batched traffic.
func (d *DSM) registerAggHandlers(n *node) {
	id := simnet.NodeID(n.id)
	d.layer.Register(id, kindApplyDiffBatch, func(from amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		dec := amsg.MakeDec(req)
		count := int(dec.U32())
		var total vclock.Duration
		for i := 0; i < count; i++ {
			p := memsim.PageID(dec.U64())
			total += n.applyHome(p, dec.Blob())
		}
		return nil, total
	})
	d.layer.Register(id, kindFetchPages, func(_ amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		dec := amsg.MakeDec(req)
		pages := dec.U64s()
		// One allocation amortized over the whole run; the requester carves
		// it into per-page windows that retire individually onto the page
		// list (see pagestore/cache.go).
		out := make([]byte, len(pages)*memsim.PageSize)
		for i, v := range pages {
			hp := n.home.Frame(memsim.PageID(v))
			hp.Mu.Lock()
			copy(out[i*memsim.PageSize:(i+1)*memsim.PageSize], hp.Data)
			hp.Mu.Unlock()
		}
		return out, vclock.Duration(len(pages)) * d.Cost.CPU.PageCopyNs
	})
}

// homeDiff is one page's encoded diff tagged with its home node — the
// element type of the node's reusable flush-grouping scratch.
type homeDiff struct {
	home int
	p    memsim.PageID
	diff []byte
}

// flushBatched is the aggregated replacement for flushAll's per-page flush
// loop: diff every dirty cached page (sorted order — the scan sequence and
// its costs must stay a pure function of program state), group the
// non-empty diffs by home, and deliver each group in one call. Charges one
// request/ack plus the summed payload per home instead of one round trip
// per page.
func (n *node) flushBatched(pages []memsim.PageID) {
	d := n.dsm
	clk := d.Clocks[n.id]
	batch := n.flushScratch[:0]
	for _, p := range pages {
		cp, ok := n.cache[p]
		if !ok || cp.Ext.twin == nil {
			continue
		}
		t0 := clk.Now()
		clk.AdvanceCat(vclock.CatProtocol, d.Cost.CPU.DiffScanNs)
		diff := buildDiff(cp.Data, cp.Ext.twin)
		pagestore.PutPage(cp.Ext.twin)
		cp.Ext.twin = nil
		delete(n.dirty, p)
		if len(diff) == 0 {
			putDiff(diff)
			continue
		}
		n.stats.DiffsCreated++
		n.stats.DiffBytes += uint64(len(diff))
		if rec := d.rec; rec != nil && rec.Enabled() {
			rec.Record(n.id, perfmon.EvDiffCreate, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(len(diff)))
		}
		cp.Ext.diffStreak++
		batch = append(batch, homeDiff{home: d.Mem.Home(p), p: p, diff: diff})
	}
	// Group by home with an in-place stable sort over the node's reusable
	// scratch (no per-flush map, no per-home slices — the marginal
	// allocation cost of a flushed page must be zero). Input pages are
	// ascending, so stability keeps each home's batch ascending and homes
	// emerge in ascending order: the exact message sequence the old
	// map-plus-sorted-homes grouping produced, which seeded fault replay
	// depends on (draw streams are positional per link).
	slices.SortStableFunc(batch, func(a, b homeDiff) int { return a.home - b.home })
	for lo := 0; lo < len(batch); {
		hi := lo
		for hi < len(batch) && batch[hi].home == batch[lo].home {
			hi++
		}
		group := batch[lo:hi]
		home := batch[lo].home
		enc := amsg.GetEnc()
		enc.U32(uint32(len(group)))
		for _, e := range group {
			enc.U64(uint64(e.p)).Blob(e.diff)
		}
		t0 := clk.Now()
		if _, err := d.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(home), kindApplyDiffBatch, enc.Bytes()); err != nil {
			// Like flushPage: a diff batch that cannot reach the
			// authoritative copies means writes are lost; stop loudly.
			panic(fmt.Sprintf("swdsm: node %d cannot flush %d-page diff batch to home node %d: %v",
				n.id, len(group), home, err))
		}
		enc.Free()
		for _, e := range group {
			putDiff(e.diff)
		}
		n.stats.ProtocolMsgs++
		n.stats.DiffBatches++
		n.stats.BatchedDiffs += uint64(len(group))
		if rec := d.rec; rec != nil && rec.Enabled() {
			rec.Record(n.id, perfmon.EvBatchFlush, t0, vclock.Since(t0, clk.Now()), uint64(home), uint64(len(group)))
		}
		lo = hi
	}
	for i := range batch {
		batch[i].diff = nil // scratch must not pin recycled diff buffers
	}
	n.flushScratch = batch[:0]
}

// piggybackNoticeCost is the cost of a notice list riding a message the
// protocol sends anyway (lock grant, barrier release): only the payload
// bytes, none of the per-message software overhead — that is the whole
// point of piggybacking. Zero for an empty list.
func (d *DSM) piggybackNoticeCost(pages int) vclock.Duration {
	return vclock.Duration(8*pages) * d.Cost.Ethernet.NsPerByte
}

// maybePrefetch runs at the tail of every demand fault: update the stride
// tracker and, when the miss stream is sequential, speculatively fetch the
// next run of same-home pages in one message. Prefetch is strictly an
// optimization — on any failure it backs off and lets demand faults make
// progress — and it only fills free cache capacity, never evicts.
func (n *node) maybePrefetch(p memsim.PageID, home int) {
	pf := n.pf
	if pf == nil {
		return
	}
	if p == pf.last+1 {
		pf.streak++
	} else {
		pf.streak = 0
	}
	pf.last = p
	if pf.cool > 0 {
		pf.cool--
		return
	}
	if pf.streak < prefetchMinStreak {
		return
	}
	limit := n.dsm.cacheCap - len(n.cache)
	if limit > pf.degree {
		limit = pf.degree
	}
	run := make([]uint64, 0, pf.degree)
	for q := p + 1; len(run) < limit; q++ {
		// Only extend the run while the next page is already homed at the
		// same node: an unassigned page must never be first-touch-claimed
		// on speculation, and a differently-homed one belongs to another
		// run. Stop at the first cached page — past it we would be
		// re-fetching the node's own working set.
		if n.dsm.Mem.Home(q) != home {
			break
		}
		if _, cached := n.cache[q]; cached {
			break
		}
		run = append(run, uint64(q))
	}
	if len(run) == 0 {
		return
	}
	clk := n.dsm.Clocks[n.id]
	t0 := clk.Now()
	enc := amsg.GetEnc()
	req := enc.U64s(run).Bytes()
	data, err := n.dsm.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(home), kindFetchPages, req)
	enc.Free()
	n.stats.ProtocolMsgs++
	if err != nil || len(data) != len(run)*memsim.PageSize {
		pf.degree = 1
		pf.cool = prefetchCooldown
		return
	}
	for i, v := range run {
		q := memsim.PageID(v)
		// Disjoint full-slice subslices of the one response buffer: each
		// page writes only its own window, so sharing the backing array is
		// safe and avoids a copy per page.
		cp := cpagePool.Get()
		cp.Data = data[i*memsim.PageSize : (i+1)*memsim.PageSize : (i+1)*memsim.PageSize]
		cp.Page = q
		n.lru.PushFront(cp)
		n.cache[q] = cp
		pf.pending[q] = struct{}{}
	}
	clk.AdvanceCat(vclock.CatMemory, vclock.Duration(len(run))*n.dsm.Cost.CPU.PageCopyNs) // install copies
	n.stats.PrefetchRuns++
	n.stats.PrefetchPages += uint64(len(run))
	if rec := n.dsm.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvPrefetch, t0, vclock.Since(t0, clk.Now()), uint64(run[0]), uint64(len(run)))
	}
}

// notePrefetchHit moves a pending prefetched page to the hit column on its
// first real access. A sustained hit run doubles the degree toward the
// configured ceiling.
func (n *node) notePrefetchHit(p memsim.PageID) {
	pf := n.pf
	if pf == nil || len(pf.pending) == 0 {
		return
	}
	if _, ok := pf.pending[p]; !ok {
		return
	}
	delete(pf.pending, p)
	n.stats.PrefetchHits++
	pf.hitRun++
	if pf.hitRun >= 2*pf.degree && pf.degree < maxPrefetchDegree {
		pf.degree = min(2*pf.degree, maxPrefetchDegree)
		pf.hitRun = 0
	}
}

// notePrefetchDrop charges a misprediction: a prefetched page left the
// cache (eviction, invalidation, fence) before any access used it. The
// degree halves; collapsing to 1 imposes the cooldown.
func (n *node) notePrefetchDrop(p memsim.PageID) {
	pf := n.pf
	if pf == nil || len(pf.pending) == 0 {
		return
	}
	if _, ok := pf.pending[p]; !ok {
		return
	}
	delete(pf.pending, p)
	n.stats.PrefetchWaste++
	pf.hitRun = 0
	pf.degree /= 2
	if pf.degree < 1 {
		pf.degree = 1
		pf.cool = prefetchCooldown
	}
	if rec := n.dsm.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvPrefetchWaste, n.dsm.Clocks[n.id].Now(), 0, uint64(p), 0)
	}
}

// resetPrefetch clears the tracker (checkpoint restore: the rebuilt cache
// has no speculative history).
func (n *node) resetPrefetch() {
	if n.pf == nil {
		return
	}
	n.pf = newPrefetcher()
}
