package pagestore

import (
	"sync"
	"testing"

	"hamster/internal/memsim"
)

func TestFrameLazyZeroed(t *testing.T) {
	s := New()
	f := s.Frame(7)
	if len(f.Data) != memsim.PageSize {
		t.Fatalf("len = %d", len(f.Data))
	}
	for _, b := range f.Data {
		if b != 0 {
			t.Fatal("frame not zeroed")
		}
	}
	if len(s.Pages()) != 1 {
		t.Fatalf("Len = %d", len(s.Pages()))
	}
}

func TestFrameIdentityStable(t *testing.T) {
	s := New()
	a := s.Frame(3)
	a.Data[0] = 9
	if b := s.Frame(3); b != a || b.Data[0] != 9 {
		t.Fatal("Frame must return the same frame")
	}
}

func TestConcurrentFrameCreation(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	frames := make([]*Frame, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames[i] = s.Frame(42)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if frames[i] != frames[0] {
			t.Fatal("racing creators got different frames")
		}
	}
}

func TestDrop(t *testing.T) {
	s := New()
	f := s.Frame(9)
	f.Data[0] = 7
	data := s.Drop(9)
	if data == nil || data[0] != 7 {
		t.Fatal("Drop must return the frame data")
	}
	if len(s.Pages()) != 0 {
		t.Fatal("frame not removed")
	}
	if s.Drop(9) != nil {
		t.Fatal("double drop must return nil")
	}
}

// TestDropThenFrameIsFresh: a migrated-away page that comes back gets a new
// zeroed frame, not the dropped one, and Len stays exact throughout.
func TestDropThenFrameIsFresh(t *testing.T) {
	s := New()
	old := s.Frame(9)
	old.Data[0] = 7
	s.Drop(9)
	fresh := s.Frame(9)
	if fresh == old || fresh.Data[0] != 0 || len(s.Pages()) != 1 {
		t.Fatalf("Frame after Drop: same=%v byte0=%d Len=%d", fresh == old, fresh.Data[0], len(s.Pages()))
	}
}

// TestPagesAscending creates frames out of order on both sides of the
// table's 512-page chunk boundaries: checkpoint capture depends on Pages
// coming out sorted.
func TestPagesAscending(t *testing.T) {
	s := New()
	for _, p := range []memsim.PageID{1537, 512, 0, 511, 1536, 513, 4} {
		s.Frame(p)
	}
	s.Drop(4)
	want := []memsim.PageID{0, 511, 512, 513, 1536, 1537}
	got := s.Pages()
	if len(got) != len(want) {
		t.Fatalf("Pages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pages = %v, want %v", got, want)
		}
	}
}

// BenchmarkFrameLookupParallel is the contention figure the single-goroutine
// ladder rung (pagestore.frame_ns) cannot give: every goroutine looks up
// resident frames of one store, as node goroutines do on every simulated
// word. Run with -cpu 1,2; a lookup that writes shared state slows down at
// -cpu 2, one that only loads speeds up.
func BenchmarkFrameLookupParallel(b *testing.B) {
	s := New()
	for p := memsim.PageID(0); p < 64; p++ {
		s.Frame(p)
	}
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			s.Frame(memsim.PageID(i % 64))
		}
	})
}

// TestSnapshotWhileMutating proves the property checkpoint capture relies
// on: CopyFrame taken concurrently with frame mutations observes each
// frame either entirely before or entirely after a write, never a torn
// mix — because both sides hold Frame.Mu. Mutators repeatedly fill whole
// frames with a single generation byte; a torn copy would contain two
// different byte values.
func TestSnapshotWhileMutating(t *testing.T) {
	const (
		pages     = 8
		rounds    = 200
		snapshots = 50
	)
	s := New()
	for p := 0; p < pages; p++ {
		s.Frame(memsim.PageID(p))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < pages; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			f := s.Frame(memsim.PageID(p))
			for gen := 1; gen <= rounds; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				f.Mu.Lock()
				for i := range f.Data {
					f.Data[i] = byte(gen)
				}
				f.Mu.Unlock()
			}
		}(p)
	}
	buf := make([]byte, memsim.PageSize)
	for n := 0; n < snapshots; n++ {
		for p := 0; p < pages; p++ {
			if !s.CopyFrame(memsim.PageID(p), buf) {
				t.Fatalf("page %d not resident", p)
			}
			first := buf[0]
			for i, b := range buf {
				if b != first {
					close(stop)
					t.Fatalf("torn copy of page %d at snapshot %d: byte %d is %d, byte 0 is %d",
						p, n, i, b, first)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
