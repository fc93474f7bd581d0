package memsim

import "testing"

// TestWindowHoldsStridedWalk: a walk over 72 consecutive pages (MatMult's
// B column) must keep every page resident, so the second pass hits.
func TestWindowHoldsStridedWalk(t *testing.T) {
	var w Window[int]
	const base, pages, gen = PageID(1000), 72, 7
	for i := 0; i < pages; i++ {
		if w.Get(base+PageID(i), gen) != nil {
			t.Fatalf("page %d resident in an empty window", base+PageID(i))
		}
		w.Put(base+PageID(i), gen, i)
	}
	for i := 0; i < pages; i++ {
		if v := w.Get(base+PageID(i), gen); v == nil || *v != i {
			t.Fatalf("page %d: got %v, want %d", base+PageID(i), v, i)
		}
	}
}

// TestWindowGenerationBump: moving the generation on misses every slot,
// and a slot refilled under the new generation hits again.
func TestWindowGenerationBump(t *testing.T) {
	var w Window[int]
	for p := PageID(0); p < WindowSlots; p++ {
		w.Put(p, 1, int(p))
	}
	for p := PageID(0); p < WindowSlots; p++ {
		if w.Get(p, 2) != nil {
			t.Fatalf("page %d stored under generation 1 hit under generation 2", p)
		}
	}
	w.Put(5, 2, 55)
	if v := w.Get(5, 2); v == nil || *v != 55 {
		t.Fatalf("refilled slot: got %v, want 55", v)
	}
}

// TestWindowConflictEvictsOneSlot: two pages WindowSlots apart share a
// slot; storing one evicts the other and nothing else. Page 0 under
// generation 0 must also miss in a never-filled window.
func TestWindowConflictEvictsOneSlot(t *testing.T) {
	var w Window[int]
	if w.Get(0, 0) != nil {
		t.Fatal("zero window serves page 0 under generation 0")
	}
	w.Put(3, 1, 30)
	w.Put(4, 1, 40)
	w.Put(3+WindowSlots, 1, 31)
	if w.Get(3, 1) != nil {
		t.Fatal("page 3 survived a Put of the page that shares its slot")
	}
	if v := w.Get(3+WindowSlots, 1); v == nil || *v != 31 {
		t.Fatalf("conflicting page: got %v, want 31", v)
	}
	if v := w.Get(4, 1); v == nil || *v != 40 {
		t.Fatalf("neighbouring slot: got %v, want 40", v)
	}
}
