package swdsm

import "hamster/internal/memsim"

// Block accessors: the bulk fast path of platform.Substrate. A run of
// words within one page is ONE readPage/writePage call — one batched clock
// charge, one CPU-cache touch (repeated touches of one page are idempotent
// in the direct-mapped model), one frame resolution — and the modeled cost
// is word-for-word what the per-word loop charges: AccessNs per word and
// one fault (if any) for the whole run, exactly as the first word of the
// loop would fault. Twin creation, diffing, and write notices are
// untouched — a block write dirties the page exactly once per interval,
// the same as N word writes.
//
// Prefetched frames (aggregate.go) need no special handling here: a
// speculatively installed page is an ordinary clean cache entry, so
// readPage/writePage resolve it like any cache hit (scoring the
// prefetch-hit on first touch) and a page-straddling run simply crosses
// from a prefetched frame into a demand-faulted one.

func readBlock[T memsim.Word](d *DSM, nodeID int, a memsim.Addr, dst []T) {
	n := d.access(nodeID)
	n.stats.BlockReads++
	memsim.WordRuns(a, len(dst), func(p memsim.PageID, off, count int) {
		memsim.GetWords(n.readPage(p, count, count), off, dst[:count])
		dst = dst[count:]
	})
}

func writeBlock[T memsim.Word](d *DSM, nodeID int, a memsim.Addr, src []T) {
	n := d.access(nodeID)
	n.stats.BlockWrites++
	memsim.WordRuns(a, len(src), func(p memsim.PageID, off, count int) {
		fr, hp := n.writePage(p, count, count)
		memsim.PutWords(fr, off, src[:count])
		unlock(hp)
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
