package multidsm

import (
	"sync"
	"testing"

	"hamster/internal/apps"
	"hamster/internal/memsim"
	"hamster/internal/platform"
)

// Conformance: the composition is a full substrate.
var _ platform.Substrate = (*DSM)(nil)

func newMix(t testing.TB, nodes int, routes map[memsim.Policy]Engine) *DSM {
	t.Helper()
	d, err := New(Config{
		Nodes:                nodes,
		PolicyRoutes:         routes,
		HybridCacheThreshold: -1, // raw SCI-VM: no read caching
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRoutingByPolicy(t *testing.T) {
	d := newMix(t, 2, map[memsim.Policy]Engine{
		memsim.Block:  SW,
		memsim.Cyclic: Hybrid,
	})
	rb, _ := d.Alloc(memsim.PageSize, "b", memsim.Block, 0)
	rc, _ := d.Alloc(memsim.PageSize, "c", memsim.Cyclic, 0)
	rf, _ := d.Alloc(memsim.PageSize, "f", memsim.Fixed, 0) // default engine (SW=0)
	if d.RouteOf(rb.Base) != SW || d.RouteOf(rc.Base) != Hybrid || d.RouteOf(rf.Base) != SW {
		t.Fatalf("routes wrong: %v %v %v",
			d.RouteOf(rb.Base), d.RouteOf(rc.Base), d.RouteOf(rf.Base))
	}
	if SW.String() != "sw" || Hybrid.String() != "hybrid" {
		t.Fatal("engine names wrong")
	}
}

func TestEnginesSeeDistinctCostProfiles(t *testing.T) {
	d := newMix(t, 2, map[memsim.Policy]Engine{
		memsim.Block:  SW,
		memsim.Cyclic: Hybrid,
	})
	swr, _ := d.Alloc(memsim.PageSize, "sw", memsim.Block, 0)  // page 0 homed node 0
	hyr, _ := d.Alloc(memsim.PageSize, "hy", memsim.Cyclic, 0) // page homed node 0

	// Node 1 reads one word from each region.
	before := d.Clock(1).Now()
	d.ReadF64(1, swr.Base)
	swCost := d.Clock(1).Now() - before

	before = d.Clock(1).Now()
	d.ReadF64(1, hyr.Base)
	hyCost := d.Clock(1).Now() - before

	// SW engine pays a page fault (~0.5 ms); hybrid a PIO read (~2.5 µs).
	if swCost < 100*hyCost {
		t.Fatalf("engines not differentiated: sw=%v hybrid=%v", swCost, hyCost)
	}
	st := d.NodeStats(1)
	if st.PageFaults != 1 || st.RemoteReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnifiedSyncCoversBothEngines(t *testing.T) {
	// A counter in EACH engine's region, both protected by ONE lock: the
	// unified acquire/release must keep both coherent.
	d := newMix(t, 3, map[memsim.Policy]Engine{
		memsim.Block:  SW,
		memsim.Cyclic: Hybrid,
	})
	swr, _ := d.Alloc(memsim.PageSize, "sw", memsim.Block, 0)
	hyr, _ := d.Alloc(memsim.PageSize, "hy", memsim.Cyclic, 0)
	l := d.NewLock()

	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d.Acquire(id, l)
				d.WriteI64(id, swr.Base, d.ReadI64(id, swr.Base)+1)
				d.WriteI64(id, hyr.Base, d.ReadI64(id, hyr.Base)+1)
				d.Release(id, l)
			}
			d.Barrier(id)
		}(id)
	}
	wg.Wait()
	a := d.ReadI64(0, swr.Base)
	b := d.ReadI64(0, hyr.Base)
	if a != 30 || b != 30 {
		t.Fatalf("counters = %d / %d, want 30 / 30", a, b)
	}
}

func TestBarrierPropagatesAcrossEngines(t *testing.T) {
	d := newMix(t, 2, map[memsim.Policy]Engine{
		memsim.Block:  SW,
		memsim.Cyclic: Hybrid,
	})
	swr, _ := d.Alloc(memsim.PageSize, "sw", memsim.Block, 0)
	hyr, _ := d.Alloc(memsim.PageSize, "hy", memsim.Cyclic, 0)

	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Both nodes cache both regions.
			d.ReadF64(id, swr.Base)
			d.ReadF64(id, hyr.Base)
			d.Barrier(id)
			if id == 0 {
				d.WriteF64(0, swr.Base, 1.5)
				d.WriteF64(0, hyr.Base, 2.5)
			}
			d.Barrier(id)
			if d.ReadF64(id, swr.Base) != 1.5 || d.ReadF64(id, hyr.Base) != 2.5 {
				panic("stale read after unified barrier")
			}
			d.Barrier(id)
		}(id)
	}
	wg.Wait()
}

func TestMixedRoutingBeatsBothPureConfigs(t *testing.T) {
	// The §6 hypothesis, as a test: with a workload combining a dense
	// read stream and scattered remote writes, routing each region to its
	// suited engine beats both single-engine configurations.
	const streamWords, scatterPages, iters = 16384, 16, 3
	kernel := func(m apps.Machine) apps.Result {
		return apps.MixedRW(m, streamWords, scatterPages, iters)
	}
	run := func(routes map[memsim.Policy]Engine, def Engine) (uint64, float64) {
		d, err := New(Config{
			Nodes: 4, PolicyRoutes: routes, DefaultEngine: def,
			HybridCacheThreshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		res := apps.RunOnSubstrate(d, kernel)
		return uint64(apps.MaxTotal(res)), res[0].Check
	}

	pureSW, checkSW := run(nil, SW)
	pureHy, checkHy := run(nil, Hybrid)
	mixed, checkMix := run(map[memsim.Policy]Engine{
		memsim.Block:  SW,     // the read stream
		memsim.Cyclic: Hybrid, // the scatter region
	}, SW)

	if checkSW != checkHy || checkHy != checkMix {
		t.Fatalf("checksums diverge: %v %v %v", checkSW, checkHy, checkMix)
	}
	if mixed >= pureSW || mixed >= pureHy {
		t.Fatalf("mixed (%d) must beat pure SW (%d) and pure hybrid (%d)",
			mixed, pureSW, pureHy)
	}
	t.Logf("pure sw=%d pure hybrid=%d mixed=%d (virtual ns)", pureSW, pureHy, mixed)
}

func TestFreeClearsRoutes(t *testing.T) {
	d := newMix(t, 2, nil)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Block, 0)
	if err := d.Free(r); err != nil {
		t.Fatal(err)
	}
	d.routeMu.RLock()
	n := len(d.routes)
	d.routeMu.RUnlock()
	if n != 0 {
		t.Fatalf("routes leaked: %d", n)
	}
}

func TestTryAcquireAndFence(t *testing.T) {
	d := newMix(t, 2, nil)
	l := d.NewLock()
	if !d.TryAcquire(0, l) {
		t.Fatal("TryAcquire failed on free lock")
	}
	if d.TryAcquire(1, l) {
		t.Fatal("TryAcquire succeeded on held lock")
	}
	d.Release(0, l)
	d.Fence(0) // must not panic
	if d.Kind() != platform.HybridDSM {
		t.Fatal("kind wrong")
	}
	if !d.Caps().RemoteAccess {
		t.Fatal("caps wrong")
	}
}

// TestSyncCountersCounted: the composition's own synchronization layer
// serves every acquire and barrier, so its counters — not the idle ones
// of the two sub-engines — must show up in NodeStats, and reset with it.
func TestSyncCountersCounted(t *testing.T) {
	d := newMix(t, 2, nil)
	lock := d.NewLock()
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			d.Acquire(n, lock)
			d.Release(n, lock)
			d.Barrier(n)
		}(n)
	}
	wg.Wait()
	for n := 0; n < 2; n++ {
		if s := d.NodeStats(n); s.LockAcquires != 1 || s.BarrierCrossings != 1 {
			t.Errorf("node %d: %d lock acquires, %d barrier crossings; want 1 and 1", n, s.LockAcquires, s.BarrierCrossings)
		}
		d.ResetStats(n)
		if s := d.NodeStats(n); s.LockAcquires != 0 || s.BarrierCrossings != 0 {
			t.Errorf("node %d: sync counters survive ResetStats: %+v", n, s)
		}
	}
}
