package memsim

import (
	"sync"
	"sync/atomic"
	"testing"
)

func newInt() *int { return new(int) }

// count is the number of resident pages (Range is the only way to ask).
func count(tab *Table[int]) (n int) {
	tab.Range(func(PageID, *int) { n++ })
	return n
}

func TestTableRacingCreators(t *testing.T) {
	var tab Table[int]
	var made atomic.Int32
	mk := func() *int { made.Add(1); return new(int) }
	got := make([]*int, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tab.GetOrCreate(42, mk)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("creator %d got %p, creator 0 got %p", i, got[i], got[0])
		}
	}
	if made.Load() != 1 || count(&tab) != 1 {
		t.Fatalf("mk ran %d times, %d pages resident; want 1 and 1", made.Load(), count(&tab))
	}
}

func TestTableDropThenCreate(t *testing.T) {
	var tab Table[int]
	if tab.Get(7) != nil || tab.Drop(7) != nil || count(&tab) != 0 {
		t.Fatal("empty table must miss, drop nothing and count zero")
	}
	old := tab.GetOrCreate(7, newInt)
	*old = 99
	if tab.Get(7) != old {
		t.Fatal("Get must return the created entry")
	}
	if tab.Drop(7) != old || tab.Get(7) != nil || count(&tab) != 0 {
		t.Fatal("Drop must return the entry and leave the page empty")
	}
	if tab.Drop(7) != nil || count(&tab) != 0 {
		t.Fatal("second Drop must be a no-op")
	}
	fresh := tab.GetOrCreate(7, newInt)
	if fresh == old || *fresh != 0 || *old != 99 || count(&tab) != 1 {
		t.Fatal("create after Drop must build a fresh zeroed entry and leave the old one alone")
	}
	other := new(int)
	tab.Set(7, other) // replace: count unchanged
	tab.Set(8, other) // insert
	if tab.Get(7) != other || count(&tab) != 2 {
		t.Fatalf("after Set: %d pages resident, want 2", count(&tab))
	}
}

func TestTableRangeAscending(t *testing.T) {
	var tab Table[int]
	// Out of order, on both sides of two chunk boundaries, one chunk skipped.
	ids := []PageID{3*chunkSize + 1, chunkSize, 0, chunkSize - 1, 3 * chunkSize, 5, chunkSize + 1}
	for _, p := range ids {
		tab.GetOrCreate(p, newInt)
	}
	tab.Drop(5)
	var got []PageID
	tab.Range(func(p PageID, _ *int) { got = append(got, p) })
	want := []PageID{0, chunkSize - 1, chunkSize, chunkSize + 1, 3 * chunkSize, 3*chunkSize + 1}
	if len(got) != len(want) || count(&tab) != len(want) {
		t.Fatalf("Range = %v (%d pages), want %v", got, count(&tab), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
}

// TestTableGrowthUnderReaders republishes the top level (one new chunk per
// created page) while readers spin on pages that already exist; run under
// -race it checks that growth never unpublishes or tears a resident entry.
func TestTableGrowthUnderReaders(t *testing.T) {
	const resident, chunks = 8, 64
	var tab Table[int]
	for p := PageID(0); p < resident; p++ {
		*tab.GetOrCreate(p, newInt) = int(p)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for p := PageID(0); p < resident; p++ {
					if v := tab.Get(p); v == nil || *v != int(p) {
						t.Errorf("page %d lost during growth", p)
						return
					}
				}
				tab.Get(PageID(chunks) * chunkSize) // may or may not exist yet
			}
		}()
	}
	for c := PageID(1); c <= chunks; c++ {
		tab.GetOrCreate(c*chunkSize, newInt)
	}
	stop.Store(true)
	wg.Wait()
	if count(&tab) != resident+chunks {
		t.Fatalf("%d pages resident, want %d", count(&tab), resident+chunks)
	}
}

// TestTableWildPage: an id beyond the address space is a miss to read and
// a panic to create — never a top level sized by the id.
func TestTableWildPage(t *testing.T) {
	var tab Table[int]
	wild := PageID(1) << 50
	if tab.Get(wild) != nil || tab.Drop(wild) != nil {
		t.Fatal("wild page must miss")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("creating a wild page must panic")
		}
		if tab.top.Load() != nil {
			t.Fatal("wild page grew the top level")
		}
	}()
	tab.GetOrCreate(wild, newInt)
}

func TestAllocBoundedByMaxPages(t *testing.T) {
	s := NewSpace(2)
	if _, err := s.Alloc(MaxPages*PageSize, "huge", FirstTouch, 0); err == nil {
		t.Fatal("allocation past MaxPages must fail")
	}
	if s.Home(MaxPages+1) != NoHome {
		t.Fatal("page past MaxPages must have no home")
	}
}
