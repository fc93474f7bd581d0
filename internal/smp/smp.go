// Package smp implements the tightly-coupled base architecture: a
// hardware-coherent Symmetric MultiProcessor with Uniform Memory Access.
//
// All "nodes" are CPUs of one machine sharing one physical memory. Hardware
// cache coherence means no software consistency actions are ever needed
// (§3.2: "those systems come with hardware coherence, and hence do not
// require explicit consistency control"), and synchronization maps to
// native atomic operations costing hundreds of nanoseconds instead of
// microseconds or milliseconds.
//
// The catch — and the reason Figure 4's MatMult runs *faster* on two
// cluster nodes than on one dual-CPU SMP — is the shared memory bus: a
// page-granularity cache model charges DRAM costs for misses, scaled up by
// bus contention when multiple CPUs are active.
//
// The data path is two routines, readPage and writePage: all ten
// platform.Substrate accessors call them with (words to charge, accesses
// to count) and load from or store to the page they return. There is one
// physical memory and no lock on it.
package smp

import (
	"hamster/internal/hsync"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/platform"
	"hamster/internal/vclock"
)

// Config parameterizes an SMP instance.
type Config struct {
	// CPUs is the number of processors (execution contexts).
	CPUs int
	// Params is the cost model; zero value means machine.Default().
	Params machine.Params
}

// SMP is one simulated shared-memory multiprocessor. Synchronization is
// the embedded manager over a bus wire: every lock and barrier operation
// is one locked bus transaction, and hardware coherence leaves it no
// consistency engine to drive.
type SMP struct {
	platform.Base
	*hsync.Manager
	mem  memsim.Table[[memsim.PageSize]byte] // the one physical memory
	cpus []*cpu
	dram vclock.Duration // contention-scaled DRAM cost, fixed per config
}

// cpu holds the per-processor cache model. Owner-goroutine state only.
type cpu struct {
	pcache *machine.PageCache
	stats  platform.Stats
}

// New builds an SMP.
func New(cfg Config) (*SMP, error) {
	base, err := platform.NewBase("smp", cfg.CPUs, cfg.Params, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &SMP{Base: base, cpus: make([]*cpu, cfg.CPUs), dram: base.Cost.Bus.EffectiveDRAM(cfg.CPUs)}
	for i := range s.cpus {
		s.cpus[i] = &cpu{pcache: machine.NewPageCache(base.Cost.Bus.CachePages)}
	}
	s.Manager = hsync.NewManager(hsync.Config{
		Name:   "smp",
		Clocks: s.Clocks,
		Wire:   hsync.AtomicWire(base.Cost.Bus.SyncNs, 0),
	})
	return s, nil
}

// Kind implements platform.Substrate.
func (s *SMP) Kind() platform.Kind { return platform.SMP }

// Caps implements platform.Substrate.
func (s *SMP) Caps() platform.Caps {
	return platform.Caps{
		HardwareCoherent: true,
		ConsistencyModel: "processor",
		Placement:        platform.Policies(),
	}
}

// NodeStats implements platform.Substrate.
func (s *SMP) NodeStats(node int) platform.Stats { return s.SyncStats(node, s.cpus[node].stats) }

// ResetStats implements platform.Substrate.
func (s *SMP) ResetStats(node int) {
	s.cpus[node].stats = platform.Stats{}
	s.ResetSyncStats(node)
}

// Close implements platform.Substrate: at quiescence it hands every frame
// back to the page list. Accesses after it panic (cpuOf); a second Close
// has nothing left to hand back.
func (s *SMP) Close() {
	s.mem.Range(func(p memsim.PageID, _ *[memsim.PageSize]byte) {
		if f := s.mem.Drop(p); f != nil {
			pagestore.PutPage(f[:])
		}
	})
	s.cpus = nil
}

func (s *SMP) cpuOf(id int) *cpu {
	if id < 0 || id >= len(s.cpus) {
		panic(platform.BadNode("smp", id, s.cpus == nil))
	}
	return s.cpus[id]
}

func newFrame() *[memsim.PageSize]byte { return (*[memsim.PageSize]byte)(pagestore.GetZeroedPage()) }

// frame returns page p's bytes, zeroed on first use like anonymous mmap.
func (s *SMP) frame(p memsim.PageID) []byte { return s.mem.GetOrCreate(p, newFrame)[:] }

// readPage is the one read path under all five read accessors: it counts
// reads accesses, charges costWords words of access, runs the cache model
// and returns page p's bytes. A word read is (1, 1), a byte span
// (1+len/8, 1), a block run (count, count) — touching one page repeatedly
// is idempotent in the cache model, so a run is charged in one go.
func (s *SMP) readPage(id int, p memsim.PageID, costWords, reads int) []byte {
	c := s.cpuOf(id)
	c.stats.Reads += uint64(reads)
	s.Clocks[id].AdvanceCat(vclock.CatMemory, s.Cost.CPU.AccessNs*vclock.Duration(costWords))
	s.touchLocal(c, id, p)
	return s.frame(p)
}

// writePage is readPage's counterpart under the five write accessors.
func (s *SMP) writePage(id int, p memsim.PageID, costWords, writes int) []byte {
	c := s.cpuOf(id)
	c.stats.Writes += uint64(writes)
	s.Clocks[id].AdvanceCat(vclock.CatMemory, s.Cost.CPU.AccessNs*vclock.Duration(costWords))
	s.touchLocal(c, id, p)
	return s.frame(p)
}

// touchLocal charges the CPU-cache model for one page reference: the
// shared direct-mapped page-cache model (machine.PageCache), where a miss
// pays the contention-scaled DRAM cost — the same model DSM nodes use,
// except their buses are private while the SMP's CPUs share one.
func (s *SMP) touchLocal(c *cpu, id int, p memsim.PageID) {
	if !c.pcache.Touch(uint64(p)) {
		s.Clocks[id].AdvanceCat(vclock.CatMemory, s.dram)
		c.stats.CacheMisses++
	}
}

// ReadF64 implements platform.Substrate.
func (s *SMP) ReadF64(id int, a memsim.Addr) float64 {
	return memsim.GetF64(s.readPage(id, memsim.PageOf(a), 1, 1), memsim.Offset(a))
}

// WriteF64 implements platform.Substrate.
func (s *SMP) WriteF64(id int, a memsim.Addr, v float64) {
	memsim.PutF64(s.writePage(id, memsim.PageOf(a), 1, 1), memsim.Offset(a), v)
}

// ReadI64 implements platform.Substrate.
func (s *SMP) ReadI64(id int, a memsim.Addr) int64 {
	return memsim.GetI64(s.readPage(id, memsim.PageOf(a), 1, 1), memsim.Offset(a))
}

// WriteI64 implements platform.Substrate.
func (s *SMP) WriteI64(id int, a memsim.Addr, v int64) {
	memsim.PutI64(s.writePage(id, memsim.PageOf(a), 1, 1), memsim.Offset(a), v)
}

// ReadBytes implements platform.Substrate; the span may cross pages.
func (s *SMP) ReadBytes(id int, a memsim.Addr, buf []byte) {
	memsim.ByteRuns(a, len(buf), func(p memsim.PageID, off, chunk int) {
		copy(buf[:chunk], s.readPage(id, p, 1+chunk/memsim.WordSize, 1)[off:])
		buf = buf[chunk:]
	})
}

// WriteBytes implements platform.Substrate; the span may cross pages.
func (s *SMP) WriteBytes(id int, a memsim.Addr, data []byte) {
	memsim.ByteRuns(a, len(data), func(p memsim.PageID, off, chunk int) {
		copy(s.writePage(id, p, 1+chunk/memsim.WordSize, 1)[off:], data[:chunk])
		data = data[chunk:]
	})
}

// Fence implements platform.Substrate: a memory fence instruction.
func (s *SMP) Fence(node int) {
	s.Clocks[node].AdvanceCat(vclock.CatProtocol, s.Cost.Bus.SyncNs)
}
