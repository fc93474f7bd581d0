package hybriddsm

import "hamster/internal/memsim"

// Block accessors: the bulk fast path of platform.Substrate. Each maximal
// within-page run is one readRun/writeRun call of count one-word accesses,
// so a run resolves the page's home once and charges the clock in batched
// advances while the charged amounts, counters and protocol state
// transitions — the read-caching threshold included — are word-for-word
// those of the per-word loop.

func readBlock[T memsim.Word](d *DSM, nodeID int, a memsim.Addr, dst []T) {
	n := d.access(nodeID)
	n.stats.BlockReads++
	memsim.WordRuns(a, len(dst), func(p memsim.PageID, off, count int) {
		memsim.LoadWords(n.readRun(p, count, 1), off, dst[:count])
		dst = dst[count:]
	})
}

func writeBlock[T memsim.Word](d *DSM, nodeID int, a memsim.Addr, src []T) {
	n := d.access(nodeID)
	n.stats.BlockWrites++
	memsim.WordRuns(a, len(src), func(p memsim.PageID, off, count int) {
		in := src[:count]
		n.writeRun(p, count, 1, func(fr []byte) { memsim.StoreWords(fr, off, in) })
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
