package smp

import (
	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

// Block accessors: the bulk fast path of platform.Substrate. A run of
// words within one page pays ONE cache-model touch and ONE batched clock
// charge, which is exactly what the per-word loop pays in virtual time —
// touching the same page repeatedly is idempotent in the direct-mapped
// cache model, so N touches of one page cost AccessNs*N plus at most one
// DRAM miss either way. Only the real (wall-clock) cost drops.

// touchRun charges the cache model for words consecutive accesses to one
// page: the batched equivalent of words touch() calls.
func (s *SMP) touchRun(c *cpu, id int, p memsim.PageID, words int) {
	clk := s.clocks[id]
	clk.AdvanceCat(vclock.CatMemory, s.params.CPU.AccessNs*vclock.Duration(words))
	if c.pcache.Touch(uint64(p)) {
		return
	}
	clk.AdvanceCat(vclock.CatMemory, s.dram)
	c.stats.CacheMisses++
}

func readBlock[T memsim.Word](s *SMP, id int, a memsim.Addr, dst []T) {
	c := s.cpuOf(id)
	c.stats.BlockReads++
	memsim.WordRuns(a, len(dst), func(p memsim.PageID, off, count int) {
		c.stats.Reads += uint64(count)
		s.touchRun(c, id, p, count)
		memsim.GetWords(s.frame(p), off, dst[:count])
		dst = dst[count:]
	})
}

func writeBlock[T memsim.Word](s *SMP, id int, a memsim.Addr, src []T) {
	c := s.cpuOf(id)
	c.stats.BlockWrites++
	memsim.WordRuns(a, len(src), func(p memsim.PageID, off, count int) {
		c.stats.Writes += uint64(count)
		s.touchRun(c, id, p, count)
		memsim.PutWords(s.frame(p), off, src[:count])
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
