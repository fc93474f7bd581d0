package hybriddsm

import (
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// Block accessors: the bulk fast path of platform.Substrate. Each maximal
// within-page run resolves the page's home ONCE and charges the clock in
// ONE batched Advance, but the charged amounts, counters, and protocol
// state transitions are word-for-word identical to the per-word loop —
// including the read-caching threshold: a run that crosses the threshold
// mid-way pays per-word PIO cost up to the trigger, then the block fetch,
// then cache-hit cost for the remainder, exactly as N readWord calls
// would.

// readRun performs one within-page run of count words; get copies count
// words out of a frame starting at byte offset off.
func (n *node) readRun(p memsim.PageID, off, count int, get func(fr []byte)) {
	d := n.dsm
	clk := d.clocks[n.id]
	home := n.homeOf(p)

	if home == n.id {
		clk.AdvanceCat(vclock.CatMemory, d.params.CPU.AccessNs*vclock.Duration(count))
		n.stats.Reads += uint64(count)
		n.touchLocal(p)
		hp := n.home.Frame(p)
		hp.Mu.Lock()
		get(hp.Data)
		hp.Mu.Unlock()
		return
	}
	if cp, ok := n.cache[p]; ok {
		clk.AdvanceCat(vclock.CatMemory, d.params.CPU.AccessNs*vclock.Duration(count))
		n.stats.Reads += uint64(count)
		n.touchLocal(p)
		n.lru.MoveToFront(cp)
		get(cp.Data)
		return
	}

	// Uncached remote run. The first `pio` words are PIO loads over the
	// SAN; if they push the page's read count to the caching threshold the
	// page is fetched in one block transfer and the remaining words are
	// local cache hits — the same state machine readWord steps through.
	pio := count
	caches := false
	if d.threshold > 0 {
		if left := d.threshold - n.readCount[p]; left <= count {
			pio = left
			caches = true
		}
	}
	clk.AdvanceCat(vclock.CatMemory, d.params.CPU.AccessNs*vclock.Duration(pio))
	clk.AdvanceCat(vclock.CatNetwork, d.params.SAN.RemoteReadNs*vclock.Duration(pio))
	n.stats.Reads += uint64(pio)
	n.stats.RemoteReads += uint64(pio)
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvRemoteRead, clk.Now(), 0, uint64(p), uint64(pio))
	}

	hf := d.nodes[home].home.Frame(p)
	hf.Mu.Lock()
	get(hf.Data)
	if !caches {
		if d.threshold > 0 {
			n.readCount[p] += pio
		}
		hf.Mu.Unlock()
		return
	}
	// Threshold reached: install the page (the readCount bookkeeping and
	// eviction mirror maybeCache) and serve the rest from the cache.
	t0 := clk.Now()
	clk.AdvanceCat(vclock.CatNetwork, d.params.SAN.PageFetchNs)
	clk.AdvanceCat(vclock.CatMemory, d.params.CPU.PageCopyNs)
	cp := cpagePool.Get()
	cp.Data = pagestore.GetPage()
	copy(cp.Data, hf.Data)
	hf.Mu.Unlock()
	cp.Page = p
	n.lru.PushFront(cp)
	n.cache[p] = cp
	n.stats.PageFaults++
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvPageFault, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(home))
	}
	delete(n.readCount, p)
	for len(n.cache) > d.cacheCap {
		n.drop(n.lru.Back())
		n.stats.Evictions++
	}
	if rest := count - pio; rest > 0 {
		clk.AdvanceCat(vclock.CatMemory, d.params.CPU.AccessNs*vclock.Duration(rest))
		n.stats.Reads += uint64(rest)
		n.touchLocal(p)
	}
}

// writeRun performs one within-page run of count words; put copies count
// words into a frame starting at byte offset off.
func (n *node) writeRun(p memsim.PageID, off, count int, put func(fr []byte)) {
	d := n.dsm
	clk := d.clocks[n.id]
	clk.AdvanceCat(vclock.CatMemory, d.params.CPU.AccessNs*vclock.Duration(count))
	n.stats.Writes += uint64(count)
	n.written[p] = struct{}{}
	home := n.homeOf(p)

	if home == n.id {
		n.touchLocal(p)
		hp := n.home.Frame(p)
		hp.Mu.Lock()
		put(hp.Data)
		hp.Mu.Unlock()
		return
	}
	if d.posted {
		clk.AdvanceCat(vclock.CatNetwork, d.params.SAN.RemoteWriteNs*vclock.Duration(count))
		n.postedOut += count
	} else {
		clk.AdvanceCat(vclock.CatNetwork, d.params.SAN.RemoteReadNs*vclock.Duration(count))
	}
	n.stats.RemoteWrites += uint64(count)
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(n.id, perfmon.EvRemoteWrite, clk.Now(), 0, uint64(p), uint64(count))
	}
	hf := d.nodes[home].home.Frame(p)
	hf.Mu.Lock()
	put(hf.Data)
	hf.Mu.Unlock()
	if cp, ok := n.cache[p]; ok {
		put(cp.Data)
	}
}

func readBlock[T memsim.Word](d *DSM, nodeID int, a memsim.Addr, dst []T) {
	n := d.access(nodeID)
	n.stats.BlockReads++
	memsim.WordRuns(a, len(dst), func(p memsim.PageID, off, count int) {
		out := dst[:count]
		n.readRun(p, off, count, func(fr []byte) { memsim.GetWords(fr, off, out) })
		dst = dst[count:]
	})
}

func writeBlock[T memsim.Word](d *DSM, nodeID int, a memsim.Addr, src []T) {
	n := d.access(nodeID)
	n.stats.BlockWrites++
	memsim.WordRuns(a, len(src), func(p memsim.PageID, off, count int) {
		in := src[:count]
		n.writeRun(p, off, count, func(fr []byte) { memsim.PutWords(fr, off, in) })
		src = src[count:]
	})
}

// ReadF64Block implements platform.Substrate.
func (d *DSM) ReadF64Block(node int, a memsim.Addr, dst []float64) { readBlock(d, node, a, dst) }

// WriteF64Block implements platform.Substrate.
func (d *DSM) WriteF64Block(node int, a memsim.Addr, src []float64) { writeBlock(d, node, a, src) }

// ReadI64Block implements platform.Substrate.
func (d *DSM) ReadI64Block(node int, a memsim.Addr, dst []int64) { readBlock(d, node, a, dst) }

// WriteI64Block implements platform.Substrate.
func (d *DSM) WriteI64Block(node int, a memsim.Addr, src []int64) { writeBlock(d, node, a, src) }
