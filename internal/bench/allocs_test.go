package bench

import (
	"fmt"
	"runtime"
	"testing"

	"hamster/internal/consengine"
	"hamster/internal/core"
	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// The allocation regression gates: the pooled hot paths must not allocate
// in steady state. testing.AllocsPerRun runs each op once to warm the
// pools (plus the explicit warmup below, which also materializes home
// frames, fast-path entries, and map buckets), then averages mallocs over
// the measured runs — any pool regression shows up as a fractional
// average and fails the gate.

func warm(op func(), times int) {
	for i := 0; i < times; i++ {
		op()
	}
}

// skipUnderRace skips an allocation gate when the race detector is on:
// the race runtime allocates on instrumented paths, which would fail the
// zero-alloc assertions for reasons unrelated to the pools. check.sh
// runs the gates plain before the -race suite.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented paths; run plain for allocation gates")
	}
}

// TestPageFetchZeroAlloc pins the remote page-fetch cycle — request
// encode, synchronous fetch call, reply install, LRU eviction — at zero
// steady-state heap allocations.
func TestPageFetchZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	op, close, err := pageFetchProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer close()
	warm(op, 8)
	if avg := testing.AllocsPerRun(50, op); avg != 0 {
		t.Errorf("page-fetch cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestIvyFaultCycleZeroAllocPages pins ivy's page faults at no page
// allocation: grants are built in the requester's reply scratch and the
// copies live on pagestore's page list. One cycle is read faults at two
// nodes, an owner write that invalidates both, then ownership to a third
// node and back. A reply allocated per grant cost about 19.7 kB and 8
// objects a cycle; what remains are the copyset and member lists, about
// 256 bytes.
func TestIvyFaultCycleZeroAllocPages(t *testing.T) {
	skipUnderRace(t)
	d, err := ivy.New(ivy.Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := d.Alloc(memsim.PageSize, "ivycycle", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		d.ReadF64(1, r.Base)
		d.ReadF64(2, r.Base)
		d.WriteF64(0, r.Base, 1) // invalidates nodes 1 and 2
		d.WriteF64(3, r.Base, 2) // ownership to node 3 ...
		d.WriteF64(0, r.Base, 3) // ... and back
	}
	warm(cycle, 8)
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm(cycle, cycles)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	objects := float64(after.Mallocs-before.Mallocs) / cycles
	t.Logf("ivy fault cycle: %.0f bytes, %.1f objects", bytes, objects)
	if bytes >= memsim.PageSize {
		t.Errorf("ivy fault cycle allocates %.0f bytes (%.1f objects), want under one page (%d)", bytes, objects, memsim.PageSize)
	}
}

// TestMessageSendZeroAlloc pins the per-message simnet path — fault-state
// load, stats, enqueue, dequeue, pool return — at zero steady-state heap
// allocations.
func TestMessageSendZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	op, close := messageSendProbe()
	defer close()
	warm(op, 8)
	if avg := testing.AllocsPerRun(50, op); avg != 0 {
		t.Errorf("message send/recv allocates %.2f objects/op, want 0", avg)
	}
}

// TestDiffFlushMarginalZeroAlloc pins the MARGINAL allocation cost of a
// flushed page at zero: an interval flushing 64 dirty pages must allocate
// no more than one flushing 8, because twins, diffs, encoders, and reply
// buffers are pooled — only the per-interval bookkeeping (notice slice,
// batch grouping) may allocate, and that cost is independent of K.
func TestDiffFlushMarginalZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	measure := func(k int) float64 {
		op, close, err := diffFlushProbe(k)
		if err != nil {
			t.Fatal(err)
		}
		defer close()
		warm(op, 8)
		return testing.AllocsPerRun(50, op)
	}
	a8, a64 := measure(8), measure(64)
	if a64 > a8 {
		t.Errorf("interval flushing 64 pages allocates %.2f objects/op vs %.2f at 8 pages; marginal page cost must be zero", a64, a8)
	}
}

// TestGatedExchangeZeroAlloc pins the conservatively gated message path
// — engine session, fast-path safety check, indexed dequeue, queue-min
// maintenance — at zero steady-state heap allocations.
func TestGatedExchangeZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	op, close := gatedExchangeProbe()
	defer close()
	warm(op, 8)
	if avg := testing.AllocsPerRun(50, op); avg != 0 {
		t.Errorf("gated send/recv allocates %.2f objects/op, want 0", avg)
	}
}

// TestHorizonEvalZeroAlloc pins the engine's slow-path horizon bound —
// the Dijkstra activation pass over 62 receive-waiting peers at a
// 64-node cluster — at zero steady-state heap allocations: repeated
// evaluation must reuse the engine's scratch vectors.
func TestHorizonEvalZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	op, close := horizonProbe()
	defer close()
	warm(op, 8)
	if avg := testing.AllocsPerRun(50, op); avg != 0 {
		t.Errorf("horizon evaluation allocates %.2f objects/op, want 0", avg)
	}
}

// TestPageLookupZeroAlloc pins the two lookups every simulated word pays —
// the home of its page and the frame holding its bytes — at zero heap
// allocations once the page is resident.
func TestPageLookupZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	space := memsim.NewSpace(4)
	r, err := space.Alloc(64*memsim.PageSize, "probe", memsim.Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	store, first := pagestore.New(), memsim.PageOf(r.Base)
	op := func() {
		for p := first; p < first+64; p++ {
			if space.Home(p) == memsim.NoHome || store.Frame(p) == nil {
				t.Fatal("allocated page without home or frame")
			}
		}
	}
	warm(op, 1) // creates the frames
	if avg := testing.AllocsPerRun(50, op); avg != 0 {
		t.Errorf("resident-page Home+Frame allocates %.2f objects per 64 pages, want 0", avg)
	}
}

// TestWordAccessZeroAlloc pins the four word accessors of every substrate
// at zero heap allocations on pages homed here, cached here and — on the
// hybrid DSM with caching off — read and written over the SAN. The word
// accessors reach their substrate's one read or write routine through
// values or closures built per call; this is the guard that none of them
// escapes.
func TestWordAccessZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	const nodes = 2
	subs := []struct {
		name  string
		build func() (platform.Substrate, error)
	}{
		{"smp", func() (platform.Substrate, error) { return smp.New(smp.Config{CPUs: nodes}) }},
		{"hybrid-cached", func() (platform.Substrate, error) { return hybriddsm.New(hybriddsm.Config{Nodes: nodes}) }},
		{"hybrid-remote", func() (platform.Substrate, error) {
			return hybriddsm.New(hybriddsm.Config{Nodes: nodes, CacheThreshold: -1})
		}},
		{"swdsm", func() (platform.Substrate, error) { return swdsm.New(swdsm.Config{Nodes: nodes}) }},
		{"ivy", func() (platform.Substrate, error) { return ivy.New(ivy.Config{Nodes: nodes}) }},
	}
	for _, c := range subs {
		t.Run(c.name, func(t *testing.T) {
			sub, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			r, err := sub.Alloc(nodes*memsim.PageSize, "words", memsim.Cyclic, 0)
			if err != nil {
				t.Fatal(err)
			}
			var sink float64
			op := func() {
				for page := 0; page < nodes; page++ { // node 0's own page, then node 1's
					a := r.Base + memsim.Addr(page*memsim.PageSize)
					sink += sub.ReadF64(0, a)
					sub.WriteF64(0, a+8, sink)
					sink += float64(sub.ReadI64(0, a+16))
					sub.WriteI64(0, a+24, int64(page))
				}
			}
			warm(op, hybridCacheThreshold) // faults, twins, caches and map buckets
			if avg := testing.AllocsPerRun(50, op); avg != 0 {
				t.Errorf("eight word accesses allocate %.2f objects, want 0", avg)
			}
		})
	}
}

// TestBootAllocBudget bounds what booting and closing a 64-node runtime
// allocates. The runtime attaches a disabled event recorder to every
// layer; while it holds a ring per node from boot, this is ~170 MB, so a
// ring allocated before Enable fails it.
func TestBootAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const budget = 4 << 20
	for _, engine := range []string{consengine.ScopeName, consengine.IVYName} {
		t.Run(engine, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rt, err := core.New(core.Config{Platform: platform.SWDSM, Nodes: 64, Topology: simnet.TopoRack, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			rt.Close()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%s/64/rack boot+close allocated %.1f MB, budget %.0f MB", engine, float64(got)/(1<<20), float64(budget)/(1<<20))
			}
		})
	}
}

// Microbenchmarks for the same ops (run with -bench . -benchmem).

func BenchmarkPageFetch(b *testing.B) {
	op, close, err := pageFetchProbe()
	if err != nil {
		b.Fatal(err)
	}
	defer close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkStridedRead walks one word per page down 72 consecutive pages
// (MatMult's B column) from node 1 of a 4-node cluster, pages dealt
// round-robin so the walk mixes home and cached frames. Every page is
// resident after the warmup (one pass faults a page into scope and ivy;
// the hybrid DSM caches it at its read threshold), so an op is 72 accessor
// fast paths: a window too narrow for the walk, or a read path that takes
// a lock again, shows up here in ns/op (and any garbage in allocs/op,
// want 0).
func BenchmarkStridedRead(b *testing.B) {
	const pages, nodes = 72, 4
	engines := []struct {
		name   string
		boot   func() (platform.Substrate, error)
		passes int
	}{
		{"scope", func() (platform.Substrate, error) { return swdsm.New(swdsm.Config{Nodes: nodes}) }, 1},
		{"ivy", func() (platform.Substrate, error) { return ivy.New(ivy.Config{Nodes: nodes}) }, 1},
		{"hybriddsm", func() (platform.Substrate, error) { return hybriddsm.New(hybriddsm.Config{Nodes: nodes}) }, hybridCacheThreshold},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			d, err := e.boot()
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			r, err := d.Alloc(pages*memsim.PageSize, "column", memsim.Cyclic, 0)
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			op := func() {
				for i := 0; i < pages; i++ {
					sum += d.ReadF64(1, r.Base+memsim.Addr(i*memsim.PageSize))
				}
			}
			warm(op, e.passes) // every page home or cached from here on
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			stridedSink = sum
		})
	}
}

var stridedSink float64

func BenchmarkMessageSend(b *testing.B) {
	op, close := messageSendProbe()
	defer close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkDiffFlush(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(byteSizeName(k), func(b *testing.B) {
			op, close, err := diffFlushProbe(k)
			if err != nil {
				b.Fatal(err)
			}
			defer close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkGatedExchange(b *testing.B) {
	op, close := gatedExchangeProbe()
	defer close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkHorizonEval(b *testing.B) {
	op, close := horizonProbe()
	defer close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkDeepQueueRecv shows the per-(node, kind) bucket index: the
// hot-kind receive must cost the same whether the endpoint's queue holds
// zero or 512 cold-kind messages (the old single-queue match scan was
// linear in the full backlog).
func BenchmarkDeepQueueRecv(b *testing.B) {
	for _, backlog := range []int{0, 512} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			op, close := deepQueueProbe(backlog)
			defer close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func byteSizeName(k int) string {
	if k == 8 {
		return "k=8"
	}
	return "k=64"
}
