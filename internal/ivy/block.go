package ivy

import "hamster/internal/memsim"

// Block accessors: the bulk fast path of platform.Substrate, with the
// same cost identity as the scope engine's (see swdsm/block.go): a run
// of words within one page pays ONE frame resolution and ONE batched
// clock charge, but the modeled cost is word-for-word what the per-word
// loop charges — AccessNs per word, one fault (if any) for the whole
// run, one CPU-cache touch per page. Under IVY a block write triggers at
// most one ownership transfer and one invalidation round per page, the
// same as the first word write of a loop.

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
		e := n.writePage(p, count, count)
		memsim.PutWords(e.data, off, src[:count])
		n.mu.Unlock()
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
