package memsim

import (
	"testing"
	"testing/quick"
)

func TestPageArithmetic(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageSize-1) != 0 || PageOf(PageSize) != 1 {
		t.Fatal("PageOf broken")
	}
	if PageBase(3) != 3*PageSize {
		t.Fatal("PageBase broken")
	}
	if Offset(PageSize+17) != 17 {
		t.Fatal("Offset broken")
	}
	ps := PagesSpanned(PageSize-1, 2) // straddles pages 0 and 1
	if len(ps) != 2 || ps[0] != 0 || ps[1] != 1 {
		t.Fatalf("PagesSpanned = %v", ps)
	}
	if PagesSpanned(0, 0) != nil {
		t.Fatal("zero-size span must be empty")
	}
}

func TestAllocRoundsToPages(t *testing.T) {
	s := NewSpace(4)
	r, err := s.Alloc(10, "tiny", Block, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != PageSize {
		t.Fatalf("size = %d, want %d", r.Size, PageSize)
	}
	if r.Base%PageSize != 0 {
		t.Fatalf("base %d not page aligned", r.Base)
	}
	if r.Base == 0 {
		t.Fatal("address 0 must stay reserved")
	}
}

func TestAllocZeroSizeFails(t *testing.T) {
	s := NewSpace(2)
	if _, err := s.Alloc(0, "empty", Block, 0); err == nil {
		t.Fatal("expected error for zero-size alloc")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	s := NewSpace(2)
	a, _ := s.Alloc(3*PageSize, "a", Block, 0)
	b, _ := s.Alloc(PageSize, "b", Cyclic, 0)
	if a.End() > b.Base && b.End() > a.Base {
		t.Fatalf("regions overlap: %+v %+v", a, b)
	}
}

func TestBlockPlacement(t *testing.T) {
	s := NewSpace(4)
	r, _ := s.Alloc(8*PageSize, "m", Block, 0)
	pages := PagesSpanned(r.Base, r.Size)
	// 8 pages over 4 nodes: 2 each, contiguous.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, p := range pages {
		if got := s.Home(p); got != want[i] {
			t.Fatalf("page %d home = %d, want %d", i, got, want[i])
		}
	}
}

func TestCyclicPlacement(t *testing.T) {
	s := NewSpace(3)
	r, _ := s.Alloc(6*PageSize, "m", Cyclic, 0)
	pages := PagesSpanned(r.Base, r.Size)
	for i, p := range pages {
		if got := s.Home(p); got != i%3 {
			t.Fatalf("page %d home = %d, want %d", i, got, i%3)
		}
	}
}

func TestFixedPlacement(t *testing.T) {
	s := NewSpace(4)
	r, _ := s.Alloc(3*PageSize, "m", Fixed, 2)
	for _, p := range PagesSpanned(r.Base, r.Size) {
		if got := s.Home(p); got != 2 {
			t.Fatalf("home = %d, want 2", got)
		}
	}
	if _, err := s.Alloc(PageSize, "bad", Fixed, 9); err == nil {
		t.Fatal("expected error for out-of-range fixed node")
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	s := NewSpace(4)
	r, _ := s.Alloc(2*PageSize, "m", FirstTouch, 0)
	p := PageOf(r.Base)
	if s.Home(p) != NoHome {
		t.Fatal("untouched first-touch page must have NoHome")
	}
	if got := s.TouchHome(p, 3); got != 3 {
		t.Fatalf("TouchHome = %d, want 3", got)
	}
	// Second toucher does not steal the home.
	if got := s.TouchHome(p, 1); got != 3 {
		t.Fatalf("second TouchHome = %d, want 3", got)
	}
	if s.Home(p) != 3 {
		t.Fatal("home not recorded")
	}
	// HomeFor is both steps: it reports a home that exists and assigns one
	// that does not.
	if got := s.HomeFor(p, 1); got != 3 {
		t.Fatalf("HomeFor on a homed page = %d, want 3", got)
	}
	if got := s.HomeFor(p+1, 2); got != 2 || s.Home(p+1) != 2 {
		t.Fatalf("HomeFor on an untouched page = %d (home %d), want 2", got, s.Home(p+1))
	}
}

func TestSetHomeMigration(t *testing.T) {
	s := NewSpace(2)
	r, _ := s.Alloc(PageSize, "m", Block, 0)
	p := PageOf(r.Base)
	s.SetHome(p, 1)
	if s.Home(p) != 1 {
		t.Fatal("SetHome did not migrate")
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := NewSpace(2)
	a, _ := s.Alloc(2*PageSize, "a", Block, 0)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if s.Home(PageOf(a.Base)) != NoHome {
		t.Fatal("freed pages must lose their homes")
	}
	b, _ := s.Alloc(PageSize, "b", Cyclic, 0)
	if b.Base != a.Base {
		t.Fatalf("free block not reused: got base %d, want %d", b.Base, a.Base)
	}
	// Remainder of the freed block still usable.
	c, _ := s.Alloc(PageSize, "c", Cyclic, 0)
	if c.Base != a.Base+PageSize {
		t.Fatalf("free remainder not reused: got %d, want %d", c.Base, a.Base+PageSize)
	}
}

func TestFreeUnknownRegionFails(t *testing.T) {
	s := NewSpace(2)
	if err := s.Free(Region{Base: 12345, Size: PageSize}); err == nil {
		t.Fatal("expected error freeing unknown region")
	}
}

func TestFreeCoalesces(t *testing.T) {
	s := NewSpace(2)
	a, _ := s.Alloc(PageSize, "a", Block, 0)
	b, _ := s.Alloc(PageSize, "b", Block, 0)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	// Coalesced: a 2-page alloc must fit in the combined hole.
	c, _ := s.Alloc(2*PageSize, "c", Block, 0)
	if c.Base != a.Base {
		t.Fatalf("coalesced hole not used: got %d, want %d", c.Base, a.Base)
	}
}

func TestRegionOfAndAllocated(t *testing.T) {
	s := NewSpace(2)
	r, _ := s.Alloc(2*PageSize, "named", Block, 0)
	got, ok := s.RegionOf(r.Base + 100)
	if !ok || got.Name != "named" {
		t.Fatalf("RegionOf = %+v, %v", got, ok)
	}
	if _, ok := s.RegionOf(r.End()); ok {
		t.Fatal("RegionOf past end must miss")
	}
	if s.Allocated() != 2*PageSize {
		t.Fatalf("Allocated = %d", s.Allocated())
	}
	if len(s.Regions()) != 1 {
		t.Fatal("Regions snapshot wrong")
	}
}

// Property: regions returned by a random sequence of allocs never overlap
// and are always page-aligned.
func TestAllocNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSpace(3)
		var regs []Region
		for _, sz := range sizes {
			r, err := s.Alloc(uint64(sz)+1, "r", Cyclic, 0)
			if err != nil {
				return false
			}
			if r.Base%PageSize != 0 || r.Size%PageSize != 0 {
				return false
			}
			regs = append(regs, r)
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].End() > regs[j].Base && regs[j].End() > regs[i].Base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every page of every allocation has a home (for non-first-touch
// policies) within the node range.
func TestHomesAlwaysValidProperty(t *testing.T) {
	f := func(sizes []uint16, polSeed uint8) bool {
		nodes := 1 + int(polSeed%7)
		s := NewSpace(nodes)
		pols := []Policy{Block, Cyclic, Fixed}
		for i, sz := range sizes {
			pol := pols[i%len(pols)]
			r, err := s.Alloc(uint64(sz)+1, "r", pol, i%nodes)
			if err != nil {
				return false
			}
			for _, p := range PagesSpanned(r.Base, r.Size) {
				h := s.Home(p)
				if h < 0 || h >= nodes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordCodecs(t *testing.T) {
	fr := make([]byte, 64)
	PutF64(fr, 8, 2.718281828)
	if got := GetF64(fr, 8); got != 2.718281828 {
		t.Fatalf("F64 = %v", got)
	}
	PutU64(fr, 16, 1<<63)
	if GetU64(fr, 16) != 1<<63 {
		t.Fatal("U64 round trip failed")
	}
	PutI64(fr, 24, -99)
	if GetI64(fr, 24) != -99 {
		t.Fatal("I64 round trip failed")
	}
}

func TestWordCodecProperty(t *testing.T) {
	fr := make([]byte, PageSize)
	f := func(off uint16, v float64) bool {
		o := int(off) % (PageSize - WordSize)
		o -= o % WordSize
		PutF64(fr, o, v)
		got := GetF64(fr, o)
		return got == v || (got != got && v != v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewSpacePanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace(0)
}
