package smp

import "hamster/internal/memsim"

// Block accessors: the bulk fast path of platform.Substrate. A run of
// words within one page is ONE readPage/writePage call — one cache-model
// touch and one batched clock charge — which is exactly what the per-word
// loop pays in virtual time: N touches of one page cost AccessNs*N plus at
// most one DRAM miss either way. Only the real (wall-clock) cost drops.

func readBlock[T memsim.Word](s *SMP, id int, a memsim.Addr, dst []T) {
	s.cpuOf(id).stats.BlockReads++
	memsim.WordRuns(a, len(dst), func(p memsim.PageID, off, count int) {
		memsim.GetWords(s.readPage(id, p, count, count), off, dst[:count])
		dst = dst[count:]
	})
}

func writeBlock[T memsim.Word](s *SMP, id int, a memsim.Addr, src []T) {
	s.cpuOf(id).stats.BlockWrites++
	memsim.WordRuns(a, len(src), func(p memsim.PageID, off, count int) {
		memsim.PutWords(s.writePage(id, p, count, count), off, src[:count])
		src = src[count:]
	})
}

// ReadF64Block implements platform.Substrate.
func (s *SMP) ReadF64Block(id int, a memsim.Addr, dst []float64) { readBlock(s, id, a, dst) }

// WriteF64Block implements platform.Substrate.
func (s *SMP) WriteF64Block(id int, a memsim.Addr, src []float64) { writeBlock(s, id, a, src) }

// ReadI64Block implements platform.Substrate.
func (s *SMP) ReadI64Block(id int, a memsim.Addr, dst []int64) { readBlock(s, id, a, dst) }

// WriteI64Block implements platform.Substrate.
func (s *SMP) WriteI64Block(id int, a memsim.Addr, src []int64) { writeBlock(s, id, a, src) }
