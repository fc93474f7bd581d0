package hybriddsm

import (
	"sync"
	"testing"

	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/vclock"
)

func newDSM(t testing.TB, nodes int) *DSM {
	t.Helper()
	d, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func spmd(d *DSM, fn func(id int)) {
	var wg sync.WaitGroup
	for id := 0; id < d.Nodes(); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fn(id)
		}(id)
	}
	wg.Wait()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("expected error for zero nodes")
	}
}

func TestCaps(t *testing.T) {
	d := newDSM(t, 2)
	c := d.Caps()
	if !c.RemoteAccess || c.HardwareCoherent {
		t.Fatalf("caps = %+v", c)
	}
	if d.Kind() != platform.HybridDSM {
		t.Fatal("wrong kind")
	}
}

func TestRemoteWriteIsImmediatelyAtHome(t *testing.T) {
	// The defining hybrid property: writes go straight through to the home
	// copy — no release needed for the home to see them.
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.WriteF64(1, r.Base, 13.5)
	if got := d.ReadF64(0, r.Base); got != 13.5 {
		t.Fatalf("home read = %v, want 13.5 (write-through)", got)
	}
	st := d.NodeStats(1)
	if st.RemoteWrites != 1 || st.TwinsCreated != 0 || st.DiffsCreated != 0 {
		t.Fatalf("writer stats = %+v (no twins/diffs in hybrid DSM)", st)
	}
}

func TestRemoteReadCostIsPerWord(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: -1}) // caching off
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	before := d.Clock(1).Now()
	d.ReadF64(1, r.Base)
	cost := vclock.Duration(d.Clock(1).Now() - before)
	want := d.Params().CPU.AccessNs + d.Params().SAN.RemoteReadNs
	if cost != want {
		t.Fatalf("remote read cost = %d, want %d", cost, want)
	}
}

func TestPostedWritesCheaperThanPIO(t *testing.T) {
	posted := newDSM(t, 2)
	pio, err := New(Config{Nodes: 2, DisablePostedWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pio.Close()

	rp, _ := posted.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	rq, _ := pio.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	for i := 0; i < 100; i++ {
		posted.WriteF64(1, rp.Base+memsim.Addr(8*i), 1)
		pio.WriteF64(1, rq.Base+memsim.Addr(8*i), 1)
	}
	if posted.Clock(1).Now() >= pio.Clock(1).Now() {
		t.Fatalf("posted writes (%d) must be cheaper than PIO writes (%d)",
			posted.Clock(1).Now(), pio.Clock(1).Now())
	}
}

func TestHotPageGetsCached(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	for i := 0; i < 10; i++ {
		d.ReadF64(1, r.Base+memsim.Addr(8*i))
	}
	st := d.NodeStats(1)
	if st.PageFaults != 1 {
		t.Fatalf("block transfers = %d, want 1", st.PageFaults)
	}
	// First 4 reads remote, rest from cache.
	if st.RemoteReads != 4 {
		t.Fatalf("remote reads = %d, want 4", st.RemoteReads)
	}
}

func TestCachedCopyInvalidatedAtBarrier(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)

	spmd(d, func(id int) {
		if id == 1 {
			d.ReadF64(1, r.Base) // caches the page (threshold 1)
		}
		d.Barrier(id)
		if id == 0 {
			d.WriteF64(0, r.Base, 7.5)
		}
		d.Barrier(id)
		if id == 1 {
			if got := d.ReadF64(1, r.Base); got != 7.5 {
				panic("stale cached copy after barrier")
			}
		}
		d.Barrier(id)
	})
	if inv := d.NodeStats(1).Invalidations; inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}
}

func TestStaleCachedReadWithoutSync(t *testing.T) {
	// Relaxed consistency: no sync, no visibility guarantee for cached
	// copies — the reader legitimately sees the old value.
	d, err := New(Config{Nodes: 3, CacheThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.ReadF64(2, r.Base) // node 2 caches 0
	d.WriteF64(1, r.Base, 3.0)
	if got := d.ReadF64(2, r.Base); got != 0 {
		t.Fatalf("cached read = %v, want stale 0", got)
	}
}

func TestOwnWritesUpdateOwnCache(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.ReadF64(1, r.Base) // cache it
	d.WriteF64(1, r.Base, 5.5)
	if got := d.ReadF64(1, r.Base); got != 5.5 {
		t.Fatalf("own cached read after own write = %v, want 5.5", got)
	}
}

func TestLockTransfersScope(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	l := d.NewLock()

	d.ReadF64(1, r.Base) // node 1 caches 0

	d.Acquire(0, l)
	d.WriteF64(0, r.Base, 2.25)
	d.Release(0, l)

	d.Acquire(1, l)
	if got := d.ReadF64(1, r.Base); got != 2.25 {
		t.Fatalf("read after acquire = %v, want 2.25", got)
	}
	d.Release(1, l)
}

func TestLockCounterMutualExclusion(t *testing.T) {
	d := newDSM(t, 4)
	r, _ := d.Alloc(memsim.PageSize, "counter", memsim.Fixed, 0)
	l := d.NewLock()
	const perNode = 25
	spmd(d, func(id int) {
		for i := 0; i < perNode; i++ {
			d.Acquire(id, l)
			d.WriteI64(id, r.Base, d.ReadI64(id, r.Base)+1)
			d.Release(id, l)
		}
		d.Barrier(id)
	})
	if got := d.ReadI64(0, r.Base); got != 4*perNode {
		t.Fatalf("counter = %d, want %d", got, 4*perNode)
	}
}

func TestSyncMuchCheaperThanSWDSM(t *testing.T) {
	// The hybrid's sync tokens ride on remote writes (~µs), not Ethernet
	// messages (~100µs): a lock round trip must cost well under 100µs.
	d := newDSM(t, 2)
	l := d.NewLock()
	before := d.Clock(1).Now()
	d.Acquire(1, l)
	d.Release(1, l)
	cost := vclock.Duration(d.Clock(1).Now() - before)
	if cost > 50_000 {
		t.Fatalf("hybrid lock round trip = %v, want < 50µs", cost)
	}
}

func TestReadWriteBytesCrossPage(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(2*memsim.PageSize, "span", memsim.Fixed, 0)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(200 - i)
	}
	start := r.Base + memsim.Addr(memsim.PageSize-32)
	d.WriteBytes(1, start, data)
	buf := make([]byte, 64)
	d.ReadBytes(0, start, buf)
	for i := range buf {
		if buf[i] != byte(200-i) {
			t.Fatalf("byte %d = %d", i, buf[i])
		}
	}
}

func TestStoreBarrierChargedOncePerDrain(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	l := d.NewLock()
	d.Acquire(1, l)
	for i := 0; i < 10; i++ {
		d.WriteF64(1, r.Base+memsim.Addr(8*i), 1)
	}
	before := d.Clock(1).Now()
	d.Release(1, l)
	relCost := vclock.Duration(d.Clock(1).Now() - before)
	// Release = store barrier + sync message, both µs-scale.
	max := d.Params().SAN.StoreBarrierNs + d.Params().SAN.SyncMsgNs + 1000
	if relCost > max {
		t.Fatalf("release cost = %v, want <= %v", relCost, max)
	}
}

func TestFirstTouch(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "ft", memsim.FirstTouch, 0)
	d.WriteF64(1, r.Base, 1)
	if h := d.Space().Home(memsim.PageOf(r.Base)); h != 1 {
		t.Fatalf("home = %d, want 1", h)
	}
	if d.NodeStats(1).RemoteWrites != 0 {
		t.Fatal("first-touch write must be local")
	}
}

func TestCacheEviction(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 1, CachePages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(8*memsim.PageSize, "big", memsim.Fixed, 0)
	for p := 0; p < 8; p++ {
		d.ReadF64(1, r.Base+memsim.Addr(p*memsim.PageSize))
	}
	st := d.NodeStats(1)
	if st.Evictions < 6 {
		t.Fatalf("evictions = %d, want >= 6", st.Evictions)
	}
}

func TestBarrierReconcilesClocks(t *testing.T) {
	d := newDSM(t, 4)
	spmd(d, func(id int) {
		d.Clock(id).Advance(vclock.Duration(id) * 500_000)
		d.Barrier(id)
	})
	max := d.Clock(3).Now()
	for id := 0; id < 4; id++ {
		if d.Clock(id).Now() < max-vclock.Time(2*d.Params().SAN.SyncMsgNs) {
			t.Fatalf("node %d clock %v too far behind %v", id, d.Clock(id).Now(), max)
		}
	}
}

func TestFenceDropsCache(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.ReadF64(1, r.Base) // cached
	d.WriteF64(0, r.Base, 4.0)
	d.Fence(1)
	if got := d.ReadF64(1, r.Base); got != 4.0 {
		t.Fatalf("read after fence = %v, want 4.0", got)
	}
}

func BenchmarkRemoteRead(b *testing.B) {
	d, _ := New(Config{Nodes: 2, CacheThreshold: -1})
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadF64(1, r.Base)
	}
}

func BenchmarkPostedRemoteWrite(b *testing.B) {
	d, _ := New(Config{Nodes: 2})
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteF64(1, r.Base, 1)
	}
}

// TestWindowInvalidation covers each way a node's window slot goes stale:
// its cached copy is dropped (barrier notice, acquire notice, Fence,
// eviction) or its interval ends and the written set is cleared. In every
// case the access after the event must resolve the page afresh.
func TestWindowInvalidation(t *testing.T) {
	// cached boots two nodes that cache a remote page on its first read and
	// allocates pages pages homed at node 0.
	cached := func(t *testing.T, cachePages, pages int) (*DSM, memsim.Region) {
		d, err := New(Config{Nodes: 2, CacheThreshold: 1, CachePages: cachePages})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		r, err := d.Alloc(uint64(pages)*memsim.PageSize, "x", memsim.Fixed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d, r
	}
	page := func(r memsim.Region, i int) memsim.Addr { return r.Base + memsim.Addr(i*memsim.PageSize) }

	t.Run("barrier-notice", func(t *testing.T) {
		d, r := cached(t, 0, 1)
		var got float64
		spmd(d, func(id int) {
			if id == 1 {
				d.ReadF64(1, r.Base) // cached, and in the window
			}
			d.Barrier(id)
			if id == 1 {
				d.ReadF64(1, r.Base) // in the window again, this interval
			} else {
				d.WriteF64(0, r.Base, 7.5)
			}
			d.Barrier(id)
			if id == 1 {
				got = d.ReadF64(1, r.Base)
			}
		})
		if got != 7.5 {
			t.Fatalf("read after the barrier = %v, want 7.5", got)
		}
	})

	t.Run("acquire-notice", func(t *testing.T) {
		d, r := cached(t, 0, 1)
		l := d.NewLock()
		d.ReadF64(1, r.Base)
		d.Acquire(0, l)
		d.WriteF64(0, r.Base, 2.25)
		d.Release(0, l)
		d.Acquire(1, l) // drops node 1's copy; no interval end on node 1
		if got := d.ReadF64(1, r.Base); got != 2.25 {
			t.Fatalf("read after the acquire = %v, want 2.25", got)
		}
		d.Release(1, l)
	})

	t.Run("fence", func(t *testing.T) {
		d, r := cached(t, 0, 1)
		d.ReadF64(1, r.Base)
		d.WriteF64(0, r.Base, 4)
		d.Fence(1)
		if got := d.ReadF64(1, r.Base); got != 4 {
			t.Fatalf("read after the fence = %v, want 4", got)
		}
	})

	t.Run("eviction", func(t *testing.T) {
		// Four pages through a two-page cache: pages 0 and 1 are evicted,
		// and their entries recycle into the copies of pages 2 and 3.
		d, r := cached(t, 2, 4)
		for i := 0; i < 4; i++ {
			d.ReadF64(1, page(r, i))
		}
		if ev := d.NodeStats(1).Evictions; ev != 2 {
			t.Fatalf("evictions = %d, want 2", ev)
		}
		d.WriteF64(1, page(r, 0), 9)
		if got := d.ReadF64(0, page(r, 0)); got != 9 {
			t.Fatalf("home value of the evicted page = %v, want 9", got)
		}
		for i := 2; i < 4; i++ {
			if got := d.ReadF64(1, page(r, i)); got != 0 {
				t.Fatalf("cached page %d reads %v after a write to evicted page 0, want 0", i, got)
			}
		}
	})

	t.Run("written-twice", func(t *testing.T) {
		d, r := cached(t, 0, 1)
		p := memsim.PageOf(r.Base)
		for interval := 1; interval <= 2; interval++ {
			d.WriteF64(0, r.Base, float64(interval))
			if got := d.FlushInterval(0); len(got) != 1 || got[0] != p {
				t.Fatalf("interval %d notices = %v, want [%d]", interval, got, p)
			}
		}

		d, r = cached(t, 0, 1)
		var got [2]float64
		spmd(d, func(id int) {
			for interval := 1; interval <= 2; interval++ {
				if id == 0 {
					d.WriteF64(0, r.Base, float64(interval))
				} else {
					d.ReadF64(1, r.Base) // a cached copy through the barrier
				}
				d.Barrier(id)
				if id == 1 {
					got[interval-1] = d.ReadF64(1, r.Base)
				}
				d.Barrier(id)
			}
		})
		if got != [2]float64{1, 2} {
			t.Fatalf("peer reads after each interval's barrier = %v, want [1 2]", got)
		}
	})
}
