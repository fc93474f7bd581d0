package swdsm

import (
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"

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

// spmd runs fn on every node concurrently and waits for completion.
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

func TestCapsAndKind(t *testing.T) {
	d := newDSM(t, 2)
	if d.Kind() != platform.SWDSM {
		t.Fatal("wrong kind")
	}
	c := d.Caps()
	if !c.PageCaching || c.HardwareCoherent || c.ConsistencyModel != "scope" {
		t.Fatalf("caps = %+v", c)
	}
	if !c.SupportsPolicy(memsim.Cyclic) {
		t.Fatal("cyclic placement must be supported")
	}
}

func TestLocalHomeReadWrite(t *testing.T) {
	d := newDSM(t, 2)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(0, r.Base, 3.5)
	if got := d.ReadF64(0, r.Base); got != 3.5 {
		t.Fatalf("got %v", got)
	}
	st := d.NodeStats(0)
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PageFaults != 0 {
		t.Fatal("home access must not fault")
	}
}

func TestRemoteFetchAndCaching(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.WriteI64(0, r.Base, 77)
	// Make the home write visible: writer fences (flush is a no-op for
	// home writes, data is in place) — reader faults fresh.
	if got := d.ReadI64(1, r.Base); got != 77 {
		t.Fatalf("remote read = %d", got)
	}
	if f := d.NodeStats(1).PageFaults; f != 1 {
		t.Fatalf("faults = %d, want 1", f)
	}
	// Second read hits the cache: no new fault.
	d.ReadI64(1, r.Base+8)
	if f := d.NodeStats(1).PageFaults; f != 1 {
		t.Fatalf("faults after cached read = %d, want 1", f)
	}
}

func TestFaultCostMatchesEthernetRTT(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	before := d.Clock(1).Now()
	d.ReadF64(1, r.Base)
	elapsed := d.Clock(1).Now() - before
	// A fault must cost at least two wire latencies plus the page payload
	// serialization (~440µs with defaults).
	link := d.Params().Ethernet
	min := 2*link.LatencyNs + vclock.Duration(memsim.PageSize)*link.NsPerByte
	if uint64(elapsed) < uint64(min) {
		t.Fatalf("fault cost %d < minimum %d", elapsed, min)
	}
}

func TestLockReleaseAcquirePropagates(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	l := d.NewLock()

	// Node 1 writes under the lock; node 0 (the home) sees the diff after
	// its own acquire.
	d.Acquire(1, l)
	d.WriteF64(1, r.Base, 9.25)
	d.Release(1, l)

	d.Acquire(0, l)
	if got := d.ReadF64(0, r.Base); got != 9.25 {
		t.Fatalf("home read after acquire = %v, want 9.25", got)
	}
	d.Release(0, l)

	st := d.NodeStats(1)
	if st.TwinsCreated != 1 || st.DiffsCreated != 1 {
		t.Fatalf("writer stats = %+v", st)
	}
}

func TestScopeInvalidationOnAcquire(t *testing.T) {
	d := newDSM(t, 3)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	l := d.NewLock()

	// Node 2 caches the page with the initial value.
	d.Acquire(2, l)
	if got := d.ReadF64(2, r.Base); got != 0 {
		t.Fatalf("initial = %v", got)
	}
	d.Release(2, l)

	// Node 1 updates it under the lock.
	d.Acquire(1, l)
	d.WriteF64(1, r.Base, 4.5)
	d.Release(1, l)

	// Node 2 re-acquires: its copy must be invalidated and refetched.
	d.Acquire(2, l)
	if got := d.ReadF64(2, r.Base); got != 4.5 {
		t.Fatalf("after reacquire = %v, want 4.5", got)
	}
	d.Release(2, l)
	if inv := d.NodeStats(2).Invalidations; inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}
}

func TestScopeConsistencyAllowsStaleWithoutAcquire(t *testing.T) {
	// Scope consistency: a node that does NOT synchronize keeps its stale
	// copy. This is the semantics gap that makes ScC cheap.
	d := newDSM(t, 3)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	l := d.NewLock()

	d.ReadF64(2, r.Base) // node 2 caches value 0

	d.Acquire(1, l)
	d.WriteF64(1, r.Base, 1.5)
	d.Release(1, l)

	if got := d.ReadF64(2, r.Base); got != 0 {
		t.Fatalf("unsynchronized read = %v, want stale 0", got)
	}
}

func TestBarrierPropagatesAllWrites(t *testing.T) {
	d := newDSM(t, 4)
	r, _ := d.Alloc(4*memsim.PageSize, "x", memsim.Block, 0)

	spmd(d, func(id int) {
		// Everyone reads everything once (caches all pages).
		for p := 0; p < 4; p++ {
			d.ReadF64(id, r.Base+memsim.Addr(p*memsim.PageSize))
		}
		d.Barrier(id)
		// Each node writes one word on a page homed elsewhere.
		target := (id + 1) % 4
		d.WriteF64(id, r.Base+memsim.Addr(target*memsim.PageSize), float64(id+1))
		d.Barrier(id)
		// Everyone must observe everyone's writes.
		for w := 0; w < 4; w++ {
			target := (w + 1) % 4
			got := d.ReadF64(id, r.Base+memsim.Addr(target*memsim.PageSize))
			if got != float64(w+1) {
				panic("stale read after barrier")
			}
		}
		d.Barrier(id)
	})
	for id := 0; id < 4; id++ {
		if b := d.NodeStats(id).BarrierCrossings; b != 3 {
			t.Fatalf("node %d barriers = %d, want 3", id, b)
		}
	}
}

func TestMultipleWriterFalseSharing(t *testing.T) {
	// Two nodes write disjoint words of the SAME page (homed on a third
	// node) between barriers; both writes must survive the diff merge.
	d := newDSM(t, 3)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 2)

	spmd(d, func(id int) {
		d.Barrier(id)
		if id == 0 {
			d.WriteF64(0, r.Base, 10)
		}
		if id == 1 {
			d.WriteF64(1, r.Base+8, 20)
		}
		d.Barrier(id)
		a := d.ReadF64(id, r.Base)
		b := d.ReadF64(id, r.Base+8)
		if a != 10 || b != 20 {
			panic("multiple-writer merge lost a write")
		}
		d.Barrier(id)
	})
}

func TestLockMutualExclusionCounter(t *testing.T) {
	d := newDSM(t, 4)
	r, _ := d.Alloc(memsim.PageSize, "counter", memsim.Fixed, 0)
	l := d.NewLock()
	const perNode = 25

	spmd(d, func(id int) {
		for i := 0; i < perNode; i++ {
			d.Acquire(id, l)
			v := d.ReadI64(id, r.Base)
			d.WriteI64(id, r.Base, v+1)
			d.Release(id, l)
		}
		d.Barrier(id)
	})
	if got := d.ReadI64(0, r.Base); got != 4*perNode {
		t.Fatalf("counter = %d, want %d", got, 4*perNode)
	}
}

func TestFirstTouchHomesFollowToucher(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(2*memsim.PageSize, "ft", memsim.FirstTouch, 0)
	d.WriteF64(1, r.Base, 1) // node 1 touches page 0 first
	if h := d.Space().Home(memsim.PageOf(r.Base)); h != 1 {
		t.Fatalf("home = %d, want 1", h)
	}
	// Touch is a home write: no fault, no twin.
	st := d.NodeStats(1)
	if st.PageFaults != 0 || st.TwinsCreated != 0 {
		t.Fatalf("first-touch write must be local: %+v", st)
	}
}

func TestEvictionFlushesDirtyPages(t *testing.T) {
	d, err := New(Config{Nodes: 2, CachePages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(8*memsim.PageSize, "big", memsim.Fixed, 0)

	// Node 1 writes one word on each of 8 remote pages: cache cap 2
	// forces evictions, which must flush the dirty data home.
	for p := 0; p < 8; p++ {
		d.WriteF64(1, r.Base+memsim.Addr(p*memsim.PageSize), float64(p+1))
	}
	if ev := d.NodeStats(1).Evictions; ev < 6 {
		t.Fatalf("evictions = %d, want >= 6", ev)
	}
	d.Fence(1) // flush the (still cached) last pages home too
	// All values must now be at the home.
	for p := 0; p < 8; p++ {
		if got := d.ReadF64(0, r.Base+memsim.Addr(p*memsim.PageSize)); got != float64(p+1) {
			t.Fatalf("page %d home value = %v", p, got)
		}
	}
}

func TestFenceMakesWritesGloballyVisible(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.ReadF64(1, r.Base) // node 1 caches stale copy

	d.WriteF64(1, r.Base, 6.75)
	d.Fence(1) // flush + drop cache
	if got := d.ReadF64(0, r.Base); got != 6.75 {
		t.Fatalf("home after fence = %v", got)
	}
	// Node 1's cache was dropped: next read refetches (fault count grows).
	before := d.NodeStats(1).PageFaults
	d.ReadF64(1, r.Base)
	if d.NodeStats(1).PageFaults != before+1 {
		t.Fatal("fence must drop cached pages")
	}
}

func TestReadWriteBytesCrossPage(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(2*memsim.PageSize, "span", memsim.Fixed, 0)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	start := r.Base + memsim.Addr(memsim.PageSize-50) // straddles the page boundary
	d.WriteBytes(1, start, data)
	d.Fence(1)

	buf := make([]byte, 100)
	d.ReadBytes(0, start, buf)
	for i := range buf {
		if buf[i] != byte(i+1) {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], i+1)
		}
	}
}

func TestBarrierAdvancesClocksTogether(t *testing.T) {
	d := newDSM(t, 4)
	spmd(d, func(id int) {
		d.Clock(id).Advance(vclock.Duration(id) * 1_000_000)
		d.Barrier(id)
	})
	max := d.Clock(0).Now()
	for id := 1; id < 4; id++ {
		if d.Clock(id).Now() < max {
			t.Fatalf("node %d left the barrier before the slowest node's arrival", id)
		}
	}
}

func TestComputeChargesFlops(t *testing.T) {
	d := newDSM(t, 1)
	before := d.Clock(0).Now()
	d.Compute(0, 1000)
	want := vclock.Duration(1000) * d.Params().CPU.FlopNs
	if got := vclock.Duration(d.Clock(0).Now() - before); got != want {
		t.Fatalf("compute charge = %d, want %d", got, want)
	}
}

func TestUnknownLockPanics(t *testing.T) {
	d := newDSM(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Acquire(0, 3)
}

// --- diff codec tests ---

func TestBuildApplyDiffRoundTrip(t *testing.T) {
	twin := make([]byte, memsim.PageSize)
	data := make([]byte, memsim.PageSize)
	copy(data, twin)
	memsim.PutF64(data, 0, 1.5)
	memsim.PutF64(data, 128, 2.5)
	memsim.PutF64(data, memsim.PageSize-8, 3.5)

	diff := buildDiff(data, twin)
	if len(diff) == 0 {
		t.Fatal("diff must not be empty")
	}
	home := make([]byte, memsim.PageSize)
	copy(home, twin)
	if err := applyDiff(home, diff); err != nil {
		t.Fatal(err)
	}
	for i := range home {
		if home[i] != data[i] {
			t.Fatalf("byte %d differs after apply", i)
		}
	}
}

func TestEmptyDiff(t *testing.T) {
	page := make([]byte, memsim.PageSize)
	if diff := buildDiff(page, page); diff != nil {
		t.Fatalf("identical pages must produce nil diff, got %d bytes", len(diff))
	}
}

func TestFullPageDiff(t *testing.T) {
	twin := make([]byte, memsim.PageSize)
	data := make([]byte, memsim.PageSize)
	for i := range data {
		data[i] = 0xFF
	}
	diff := buildDiff(data, twin)
	// One run covering the page: header + full payload. But runs are
	// capped by uint16 length (max 65535 > 4096), so exactly one run.
	if len(diff) != diffRunHeader+memsim.PageSize {
		t.Fatalf("full-page diff = %d bytes, want %d", len(diff), diffRunHeader+memsim.PageSize)
	}
}

func TestApplyDiffRejectsCorrupt(t *testing.T) {
	frame := make([]byte, memsim.PageSize)
	if err := applyDiff(frame, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header must fail")
	}
	// Run pointing past the page.
	bad := []byte{0xF8, 0x0F, 0x10, 0x00} // off=4088, len=16 -> 4104 > 4096
	if err := applyDiff(frame, bad); err == nil {
		t.Fatal("overflowing run must fail")
	}
}

// Property: for arbitrary word-aligned modifications, applying the diff to
// a copy of the twin reconstructs the data exactly, and the diff is never
// larger than header-per-run + changed bytes would require.
func TestDiffProperty(t *testing.T) {
	f := func(mods []struct {
		Off uint16
		Val uint64
	}) bool {
		twin := make([]byte, memsim.PageSize)
		for i := range twin {
			twin[i] = byte(i * 7)
		}
		data := make([]byte, memsim.PageSize)
		copy(data, twin)
		for _, m := range mods {
			off := int(m.Off) % (memsim.PageSize - 8)
			off -= off % 8
			binary.LittleEndian.PutUint64(data[off:], m.Val)
		}
		diff := buildDiff(data, twin)
		rebuilt := make([]byte, memsim.PageSize)
		copy(rebuilt, twin)
		if err := applyDiff(rebuilt, diff); err != nil {
			return false
		}
		for i := range rebuilt {
			if rebuilt[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoticesCodecRoundTrip(t *testing.T) {
	f := func(raw []uint64) bool {
		pages := make([]memsim.PageID, len(raw))
		for i, v := range raw {
			pages[i] = memsim.PageID(v)
		}
		got, err := decodeNotices(encodeNotices(pages))
		if err != nil || len(got) != len(pages) {
			return false
		}
		for i := range got {
			if got[i] != pages[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNoticesMalformed(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0}},
		{"truncated payload", func() []byte {
			enc := encodeNotices([]memsim.PageID{1, 2, 3})
			return enc[:len(enc)-5]
		}()},
		{"huge declared count", []byte{0xff, 0xff, 0xff, 0xff}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, err := decodeNotices(c.b); err == nil {
				t.Fatalf("decodeNotices(%v) = %v, want error", c.b, got)
			}
		})
	}
}

func BenchmarkLocalRead(b *testing.B) {
	d := newDSM(b, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadF64(0, r.Base)
	}
}

func BenchmarkCachedRemoteRead(b *testing.B) {
	d := newDSM(b, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	d.ReadF64(1, r.Base) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadF64(1, r.Base)
	}
}

func BenchmarkLockRoundTrip(b *testing.B) {
	d := newDSM(b, 2)
	l := d.NewLock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Acquire(1, l)
		d.Release(1, l)
	}
}

func TestHomeMigrationSingleWriter(t *testing.T) {
	d, err := New(Config{Nodes: 2, MigrateAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(memsim.PageSize, "hot", memsim.Fixed, 0)

	// Node 1 is the single writer of a page homed on node 0: after two
	// diffed intervals the home must migrate to node 1.
	spmd(d, func(id int) {
		for it := 0; it < 4; it++ {
			if id == 1 {
				d.WriteF64(1, r.Base, float64(it))
			}
			d.Barrier(id)
		}
	})
	p := memsim.PageOf(r.Base)
	if h := d.Space().Home(p); h != 1 {
		t.Fatalf("home = %d, want 1 (migrated)", h)
	}
	if mig := d.NodeStats(1).HomeMigrations; mig != 1 {
		t.Fatalf("migrations = %d, want 1", mig)
	}
	// Post-migration writes are home-local: no new twins.
	before := d.NodeStats(1).TwinsCreated
	spmd(d, func(id int) {
		if id == 1 {
			d.WriteF64(1, r.Base, 9)
		}
		d.Barrier(id)
	})
	if d.NodeStats(1).TwinsCreated != before {
		t.Fatal("writer still paying twins after migration")
	}
	// Data survived the migration and stays coherent.
	if got := d.ReadF64(0, r.Base); got != 9 {
		t.Fatalf("reader sees %v, want 9", got)
	}
}

func TestHomeMigrationPreservesData(t *testing.T) {
	d, err := New(Config{Nodes: 3, MigrateAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, _ := d.Alloc(2*memsim.PageSize, "data", memsim.Fixed, 0)

	spmd(d, func(id int) {
		// Node 0 populates both pages (home writes).
		if id == 0 {
			for i := 0; i < 16; i++ {
				d.WriteF64(0, r.Base+memsim.Addr(8*i), float64(100+i))
			}
		}
		d.Barrier(id)
		// Node 2 becomes the single writer of word 0 only.
		for it := 0; it < 3; it++ {
			if id == 2 {
				d.WriteF64(2, r.Base, float64(it))
			}
			d.Barrier(id)
		}
		// Every node validates ALL data: migrated page kept its other
		// words, second page untouched.
		for i := 1; i < 16; i++ {
			want := float64(100 + i)
			if got := d.ReadF64(id, r.Base+memsim.Addr(8*i)); got != want {
				panic("migration lost data")
			}
		}
		d.Barrier(id)
	})
	if d.Space().Home(memsim.PageOf(r.Base)) != 2 {
		t.Fatal("page 0 should have migrated to node 2")
	}
}

func TestMigrationDisabledByDefault(t *testing.T) {
	d := newDSM(t, 2)
	r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	spmd(d, func(id int) {
		for it := 0; it < 5; it++ {
			if id == 1 {
				d.WriteF64(1, r.Base, float64(it))
			}
			d.Barrier(id)
		}
	})
	if d.Space().Home(memsim.PageOf(r.Base)) != 0 {
		t.Fatal("home moved with migration disabled")
	}
}

func TestMigrationContention(t *testing.T) {
	// Two single-writer pages with different writers, plus a page both
	// write (streaks reset by invalidations): only the single-writer
	// pages migrate, each to its writer.
	d, err := New(Config{Nodes: 2, MigrateAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	shared, _ := d.Alloc(memsim.PageSize, "shared", memsim.Fixed, 0)
	a, _ := d.Alloc(memsim.PageSize, "a", memsim.Fixed, 0)
	b, _ := d.Alloc(memsim.PageSize, "b", memsim.Fixed, 1)

	spmd(d, func(id int) {
		for it := 0; it < 6; it++ {
			d.WriteF64(id, shared.Base+memsim.Addr(8*id), float64(it))
			if id == 1 {
				d.WriteF64(1, a.Base, float64(it)) // homed 0, writer 1
			}
			if id == 0 {
				d.WriteF64(0, b.Base, float64(it)) // homed 1, writer 0
			}
			d.Barrier(id)
		}
	})
	if h := d.Space().Home(memsim.PageOf(a.Base)); h != 1 {
		t.Fatalf("page a home = %d, want 1", h)
	}
	if h := d.Space().Home(memsim.PageOf(b.Base)); h != 0 {
		t.Fatalf("page b home = %d, want 0", h)
	}
	if h := d.Space().Home(memsim.PageOf(shared.Base)); h != 0 {
		t.Fatalf("contended page home = %d, want 0 (unmigrated)", h)
	}
}

func TestEagerRCCrossLockVisibility(t *testing.T) {
	// Under eager RC, writes published at ANY release become visible at
	// the next acquire of ANY lock — the cross-scope case that Scope
	// Consistency deliberately leaves stale.
	build := func(proto Protocol) *DSM {
		d, err := New(Config{Nodes: 2, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	run := func(d *DSM) float64 {
		r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
		l1, l2 := d.NewLock(), d.NewLock()
		d.ReadF64(1, r.Base) // node 1 caches 0
		d.Acquire(0, l1)
		d.WriteF64(0, r.Base, 5.5)
		d.Release(0, l1)
		d.Acquire(1, l2) // DIFFERENT lock
		v := d.ReadF64(1, r.Base)
		d.Release(1, l2)
		return v
	}
	if got := run(build(ScopeConsistency)); got != 0 {
		t.Fatalf("scope: cross-lock read = %v, want stale 0", got)
	}
	if got := run(build(EagerRC)); got != 5.5 {
		t.Fatalf("eager RC: cross-lock read = %v, want 5.5", got)
	}
}

func TestEagerRCReleaseCostsScaleWithPeers(t *testing.T) {
	// Eager RC pays a message per peer at release; scope does not.
	cost := func(proto Protocol) vclock.Duration {
		d, err := New(Config{Nodes: 4, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		r, _ := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
		l := d.NewLock()
		d.Acquire(1, l)
		d.WriteF64(1, r.Base, 1)
		before := d.Clock(1).Now()
		d.Release(1, l)
		return vclock.Duration(d.Clock(1).Now() - before)
	}
	scope := cost(ScopeConsistency)
	eager := cost(EagerRC)
	if eager <= scope {
		t.Fatalf("eager release (%v) must cost more than scope release (%v)", eager, scope)
	}
}

func TestProtocolString(t *testing.T) {
	if ScopeConsistency.String() != "scope" || EagerRC.String() != "eager-rc" {
		t.Fatal("protocol names wrong")
	}
	d, err := New(Config{Nodes: 1, Protocol: EagerRC})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Caps().ConsistencyModel != "eager-rc" {
		t.Fatal("caps must reflect the protocol")
	}
}
