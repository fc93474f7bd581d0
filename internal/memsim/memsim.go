// Package memsim implements the global shared-memory abstraction that every
// HAMSTER base architecture must provide (§3.1): a global address space in
// which memory can be allocated with placement annotations, and in which any
// node can issue reads and writes.
//
// The address space is a flat range of byte addresses divided into 4 KiB
// pages. A global allocator hands out page-tracked regions; a page table
// maps every page to its home node according to the region's placement
// policy. Actual storage lives in frame tables — one per node on the DSM
// substrates (home frames), a single one for the SMP's one physical memory.
// Frames and homes share one lookup structure, Table.
//
// Because the simulated MMU cannot raise page faults (Go hides signals),
// substrates detect remote/invalid accesses by software checks on this
// page table — the state machine is the same as a fault-driven DSM, only
// the detection point differs.
//
// Concurrency: the allocator and page table are shared by all node
// goroutines and internally synchronized (home and frame lookups are
// atomic loads only; see Table). The package is cost-free by design — it
// never advances a virtual clock; substrates charge access costs themselves.
package memsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"hamster/internal/machine"
)

// PageSize is the DSM page size in bytes.
const PageSize = machine.PageSize

// WordSize is the accessor granularity in bytes.
const WordSize = machine.WordSize

// Addr is a global byte address.
type Addr uint64

// PageID identifies one global page.
type PageID uint64

// PageOf returns the page containing addr.
func PageOf(a Addr) PageID { return PageID(a / PageSize) }

// PageBase returns the first address of page p.
func PageBase(p PageID) Addr { return Addr(p) * PageSize }

// Offset returns the byte offset of addr within its page.
func Offset(a Addr) int { return int(a % PageSize) }

// PagesSpanned returns the pages overlapped by [base, base+size).
func PagesSpanned(base Addr, size uint64) []PageID {
	if size == 0 {
		return nil
	}
	first := PageOf(base)
	last := PageOf(base + Addr(size) - 1)
	out := make([]PageID, 0, last-first+1)
	for p := first; p <= last; p++ {
		out = append(out, p)
	}
	return out
}

// WordRuns splits the word span [a, a+WordSize*words) into maximal
// per-page runs and calls fn once per run with the page, the byte offset
// of the run's first word, and the run's word count. Bulk accessors use
// this to pay page-granular costs (home lookup, frame resolution, twin
// creation) once per page instead of once per word. The address must be
// word-aligned — the same alignment the word accessors and the diff
// protocol assume.
func WordRuns(a Addr, words int, fn func(p PageID, off, count int)) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("memsim: unaligned block access at %#x", uint64(a)))
	}
	for words > 0 {
		p := PageOf(a)
		off := Offset(a)
		count := (PageSize - off) / WordSize
		if count > words {
			count = words
		}
		fn(p, off, count)
		words -= count
		a += Addr(count * WordSize)
	}
}

// ByteRuns splits the byte span [a, a+n) into maximal per-page runs and
// calls fn once per run with the page, the byte offset of the run's first
// byte, and the run's length — WordRuns for the unaligned byte accessors.
func ByteRuns(a Addr, n int, fn func(p PageID, off, count int)) {
	for n > 0 {
		off := Offset(a)
		count := min(PageSize-off, n)
		fn(PageOf(a), off, count)
		n -= count
		a += Addr(count)
	}
}

// Policy selects how a region's pages are distributed across nodes.
// These are the "distribution annotations" of the Memory Management module.
type Policy int

const (
	// Block splits the region into contiguous per-node chunks.
	Block Policy = iota
	// Cyclic places consecutive pages on consecutive nodes round-robin.
	Cyclic
	// FirstTouch defers home assignment until a node first accesses the
	// page; until then the page table reports NoHome.
	FirstTouch
	// Fixed places every page of the region on Region.FixedNode.
	Fixed
)

// String implements fmt.Stringer for diagnostics.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case FirstTouch:
		return "first-touch"
	case Fixed:
		return "fixed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// NoHome is returned by Home for first-touch pages that nobody touched yet.
const NoHome = -1

// Region describes one global allocation.
type Region struct {
	Base      Addr
	Size      uint64
	Name      string
	Policy    Policy
	FixedNode int
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Space is a global address space: allocator plus page table.
// All methods are safe for concurrent use.
type Space struct {
	mu      sync.RWMutex
	nodes   int
	next    Addr
	regions []Region
	free    []Region // freed blocks, page-granular, sorted by Base
	// homes holds, per page, a pointer into ids (ids[i] == i); no entry
	// means NoHome. Home() is on the word-access hot path of every
	// substrate and only loads; the table serializes its own mutations.
	homes Table[int]
	ids   []int
}

// NewSpace creates an address space for a cluster of n nodes. Address 0 is
// reserved (a zero Addr can then act as a null pointer for models that
// need one), so the first allocation starts at PageSize.
func NewSpace(nodes int) *Space {
	if nodes <= 0 {
		panic("memsim: nodes must be positive")
	}
	s := &Space{nodes: nodes, next: PageSize, ids: make([]int, nodes)}
	for i := range s.ids {
		s.ids[i] = i
	}
	return s
}

// Nodes returns the cluster size the space was built for.
func (s *Space) Nodes() int { return s.nodes }

// Alloc reserves size bytes with the given placement policy and assigns
// page homes. Sizes are rounded up to whole pages: page-granularity is what
// a page-based DSM can manage, and it guarantees no false sharing between
// separate allocations. fixedNode is used only by the Fixed policy.
func (s *Space) Alloc(size uint64, name string, pol Policy, fixedNode int) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("memsim: zero-size allocation %q", name)
	}
	if pol == Fixed && (fixedNode < 0 || fixedNode >= s.nodes) {
		return Region{}, fmt.Errorf("memsim: fixed node %d out of range", fixedNode)
	}
	rounded := (size + PageSize - 1) / PageSize * PageSize

	s.mu.Lock()
	defer s.mu.Unlock()

	base, ok := s.takeFreeLocked(rounded)
	if !ok {
		base = s.next
		if uint64(base)+rounded > MaxPages*PageSize {
			return Region{}, fmt.Errorf("memsim: allocation %q of %d bytes exhausts the address space", name, size)
		}
		s.next += Addr(rounded)
	}
	r := Region{Base: base, Size: rounded, Name: name, Policy: pol, FixedNode: fixedNode}
	s.regions = append(s.regions, r)
	s.assignHomesLocked(r)
	return r, nil
}

func (s *Space) takeFreeLocked(size uint64) (Addr, bool) {
	for i, f := range s.free {
		if f.Size >= size {
			base := f.Base
			if f.Size == size {
				s.free = append(s.free[:i], s.free[i+1:]...)
			} else {
				s.free[i].Base += Addr(size)
				s.free[i].Size -= size
			}
			return base, true
		}
	}
	return 0, false
}

func (s *Space) assignHomesLocked(r Region) {
	pages := PagesSpanned(r.Base, r.Size)
	per := (len(pages) + s.nodes - 1) / s.nodes
	for i, p := range pages {
		switch r.Policy {
		case Block:
			s.homes.Set(p, &s.ids[i/per])
		case Cyclic:
			s.homes.Set(p, &s.ids[i%s.nodes])
		case Fixed:
			s.homes.Set(p, &s.ids[r.FixedNode])
		case FirstTouch:
			// Homes assigned lazily by TouchHome.
		}
	}
}

// Free returns a region's pages to the allocator and clears their homes.
func (s *Space) Free(r Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := slices.IndexFunc(s.regions, func(reg Region) bool { return reg.Base == r.Base && reg.Size == r.Size })
	if idx < 0 {
		return fmt.Errorf("memsim: Free of unknown region base=%d size=%d", r.Base, r.Size)
	}
	s.regions = slices.Delete(s.regions, idx, idx+1)
	for _, p := range PagesSpanned(r.Base, r.Size) {
		s.homes.Drop(p)
	}
	s.free = append(s.free, Region{Base: r.Base, Size: r.Size})
	sort.Slice(s.free, func(i, j int) bool { return s.free[i].Base < s.free[j].Base })
	s.coalesceLocked()
	return nil
}

func (s *Space) coalesceLocked() {
	out := s.free[:0]
	for _, f := range s.free {
		if n := len(out); n > 0 && out[n-1].End() == f.Base {
			out[n-1].Size += f.Size
		} else {
			out = append(out, f)
		}
	}
	s.free = out
}

// Home returns the home node of a page, or NoHome for untouched
// first-touch pages and unallocated addresses.
func (s *Space) Home(p PageID) int {
	if h := s.homes.Get(p); h != nil {
		return *h
	}
	return NoHome
}

// TouchHome assigns node as the home of page p if it has none yet, and
// returns the page's (possibly pre-existing) home. This implements
// first-touch placement.
func (s *Space) TouchHome(p PageID, node int) int {
	return *s.homes.GetOrCreate(p, func() *int { return &s.ids[node] })
}

// HomeFor returns the home of page p as an accessing node resolves it:
// the page's home if it has one, else node becomes its home (first touch).
// Every substrate's access path resolves homes through this one method.
func (s *Space) HomeFor(p PageID, node int) int {
	if h := s.Home(p); h != NoHome {
		return h
	}
	return s.TouchHome(p, node)
}

// SetHome reassigns a page's home (home migration support).
func (s *Space) SetHome(p PageID, node int) { s.homes.Set(p, &s.ids[node]) }

// RegionOf returns the region containing addr.
func (s *Space) RegionOf(a Addr) (Region, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

// Regions returns a snapshot of all live regions.
func (s *Space) Regions() []Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// SpaceSnapshot is a deep copy of a Space's allocator and page-table
// state, taken at a quiescent instant (a barrier). The checkpoint
// subsystem serializes it; Restore installs it into a fresh Space.
type SpaceSnapshot struct {
	Nodes   int
	Next    Addr
	Regions []Region
	Free    []Region
	Homes   map[PageID]int
}

// Snapshot deep-copies the allocator and page-table state. The caller
// must guarantee quiescence (no concurrent Alloc/Free/TouchHome) for the
// copy to be a consistent cut; the method itself only takes the usual
// locks.
func (s *Space) Snapshot() SpaceSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn := SpaceSnapshot{
		Nodes:   s.nodes,
		Next:    s.next,
		Regions: append([]Region(nil), s.regions...),
		Free:    append([]Region(nil), s.free...),
		Homes:   make(map[PageID]int),
	}
	s.homes.Range(func(p PageID, h *int) { sn.Homes[p] = *h })
	return sn
}

// Restore replaces the space's allocator and page-table state with a
// snapshot. The snapshot's cluster size must match. Must not race with
// other use (recovery installs it before any node goroutine starts).
func (s *Space) Restore(sn SpaceSnapshot) error {
	if sn.Nodes != s.nodes {
		return fmt.Errorf("memsim: snapshot for %d nodes restored into %d-node space", sn.Nodes, s.nodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next = sn.Next
	s.regions = append(s.regions[:0], sn.Regions...)
	s.free = append(s.free[:0], sn.Free...)
	s.homes.Range(func(p PageID, _ *int) { s.homes.Drop(p) })
	for p, h := range sn.Homes {
		s.homes.Set(p, &s.ids[h])
	}
	return nil
}

// Allocated reports the total bytes currently allocated.
func (s *Space) Allocated() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total uint64
	for _, r := range s.regions {
		total += r.Size
	}
	return total
}

// GetF64 reads a float64 at byte offset off in a frame.
func GetF64(frame []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(frame[off:]))
}

// PutF64 writes a float64 at byte offset off in a frame.
func PutF64(frame []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(frame[off:], math.Float64bits(v))
}

// GetU64 reads a uint64 at byte offset off.
func GetU64(frame []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(frame[off:])
}

// PutU64 writes a uint64 at byte offset off.
func PutU64(frame []byte, off int, v uint64) {
	binary.LittleEndian.PutUint64(frame[off:], v)
}

// GetI64 reads an int64 at byte offset off.
func GetI64(frame []byte, off int) int64 { return int64(GetU64(frame, off)) }

// PutI64 writes an int64 at byte offset off.
func PutI64(frame []byte, off int, v int64) { PutU64(frame, off, uint64(v)) }

// Word is a value the block accessors move: the two 8-byte word types of
// platform.Substrate.
type Word interface{ float64 | int64 }

// GetWords decodes len(dst) consecutive words starting at byte offset off.
func GetWords[T Word](frame []byte, off int, dst []T) {
	switch d := any(dst).(type) {
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[off+8*i:]))
		}
	case []int64:
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(frame[off+8*i:]))
		}
	}
}

// PutWords encodes src as consecutive words starting at byte offset off.
func PutWords[T Word](frame []byte, off int, src []T) {
	switch s := any(src).(type) {
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(frame[off+8*i:], math.Float64bits(v))
		}
	case []int64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(frame[off+8*i:], uint64(v))
		}
	}
}
