package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hamster"
	"hamster/internal/amsg"
	"hamster/internal/checkpoint"
	"hamster/internal/hsync"
	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/loadgen"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/notices"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
	"hamster/models/jiajia"
)

// The ladder: one rung per public entry point of a layer, each the host
// cost of a single call, driven from one goroutine wherever the layer
// allows it. The rungs do not depend on the workload; every workload row
// reports the same ones, measured once per invocation.

// rung measures one entry point. build returns run, which performs n
// calls, and a teardown. per divides the cost of one call further (pages
// per flush, words per block); it is 1 when zero.
type rung struct {
	name   string // the *_ns metric
	alloc  string // the *_allocs metric, when the rung reports one
	hidden bool   // feeds a derived metric only
	per    float64
	build  func() (run func(n int), teardown func())
}

type rungResult struct{ ns, allocs float64 }

// loop turns a single call into a run function.
func loop(op func()) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			op()
		}
	}
}

func nop() {}

// measureRung runs batches of calls for about budget and returns the
// median batch's cost per call: a median, because a batch that meets a GC
// cycle or a descheduling is not the layer's cost.
func measureRung(r rung, budget time.Duration) rungResult {
	run, teardown := r.build()
	defer teardown()
	n := 1
	run(n) // first call: lazy set-up inside the layer
	for {
		start := time.Now()
		run(n)
		if el := time.Since(start); el >= budget/20 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var perCall []float64
	calls := 0
	for deadline := time.Now().Add(budget); len(perCall) < 5 || time.Now().Before(deadline); {
		start := time.Now()
		run(n)
		perCall = append(perCall, float64(time.Since(start))/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&ms)
	per := r.per
	if per == 0 {
		per = 1
	}
	return rungResult{
		ns:     median(perCall) / per,
		allocs: float64(ms.Mallocs-mallocs) / float64(calls) / per,
	}
}

// measureLadder fills the rung metrics, spending about budget in total.
func measureLadder(budget time.Duration, set func(name string, v float64)) {
	rungs := ladder()
	each := budget / time.Duration(len(rungs)+len(overheadRungs()))
	got := map[string]rungResult{}
	for _, r := range rungs {
		res := measureRung(r, each)
		got[r.name] = res
		if !r.hidden {
			set(r.name, res.ns)
		}
		if r.alloc != "" {
			set(r.alloc, res.allocs)
		}
	}
	set("simnet.deepq_ratio", got["simnet.deepq_ns"].ns/got["simnet.sendrecv_ns"].ns)
	for _, o := range overheadRungs() {
		a := measureRung(rung{build: o.over}, each/2).ns
		b := measureRung(rung{build: o.base}, each/2).ns
		// The veneers are thin enough that noise can exceed them; a
		// floor keeps the rung a positive cost rather than a sign flip.
		set(o.name, max(a-b, 0.01))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("ladder set-up: %v", err))
	}
	return v
}

// twoClocks builds the smallest network the messaging rungs need.
func twoClocks() (machine.Link, []*vclock.Clock) {
	return machine.Default().Ethernet, []*vclock.Clock{{}, {}}
}

// sendRecv is one message sent, received and recycled on a 2-node
// network holding backlog cold messages of another kind.
func sendRecv(backlog int) func() (func(int), func()) {
	return func() (func(int), func()) {
		link, clocks := twoClocks()
		net := simnet.New(link, clocks)
		payload := make([]byte, 64)
		const hot, cold = simnet.Kind(1), simnet.Kind(2)
		for i := 0; i < backlog; i++ {
			net.Send(0, 1, cold, uint32(i), payload)
		}
		return loop(func() {
			net.Send(0, 1, hot, 0, payload)
			if m := net.TryRecv(1, hot, nil); m != nil {
				m.Free()
			}
		}), net.Close
	}
}

// wordAddr walks the words of one page so that consecutive calls do not
// hit the same address.
type wordAddr struct {
	base memsim.Addr
	i    int
}

func (w *wordAddr) next() memsim.Addr {
	w.i = (w.i + 1) % (memsim.PageSize / memsim.WordSize)
	return w.base + memsim.Addr(w.i*memsim.WordSize)
}

func fixedPage(sub platform.Substrate, name string) *wordAddr {
	r := must(sub.Alloc(memsim.PageSize, name, memsim.Fixed, 0))
	return &wordAddr{base: r.Base}
}

// lockRoundTrip is an uncontended acquire and release from node 1, whose
// lock home is elsewhere on every substrate that has lock homes.
func lockRoundTrip(sub platform.Substrate) (func(int), func()) {
	l := sub.NewLock()
	return loop(func() { sub.Acquire(1, l); sub.Release(1, l) }), sub.Close
}

// barrier is one crossing by every node of the cluster; the cost is
// divided by the rung's per, so barrier64 reports a crossing per node.
func barrier(sub platform.Substrate) (func(int), func()) {
	return func(n int) {
		var wg sync.WaitGroup
		for id := 1; id < sub.Nodes(); id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					sub.Barrier(id)
				}
			}(id)
		}
		for i := 0; i < n; i++ {
			sub.Barrier(0)
		}
		wg.Wait()
	}, sub.Close
}

func ladder() []rung {
	rackTopo := must(simnet.TopologyPreset(simnet.TopoRack))
	return []rung{
		{name: "vclock.advance_ns", build: func() (func(int), func()) {
			var c vclock.Clock
			return loop(func() { c.AdvanceCat(vclock.CatMemory, 3) }), nop
		}},
		{name: "vclock.vlock_ns", build: func() (func(int), func()) {
			var c vclock.Clock
			l := vclock.NewVLock()
			return loop(func() { l.Acquire(&c, 1, 1); l.Release(&c, 1) }), nop
		}},
		{name: "vclock.gate_recv_ns", build: func() (func(int), func()) {
			link, clocks := twoClocks()
			net := simnet.New(link, clocks)
			net.EnableGate()
			payload := make([]byte, 64)
			return loop(func() {
				net.Send(0, 1, 1, 0, payload)
				// Past the arrival, delivery is provably in order.
				clocks[0].Advance(2 * link.MsgCost(len(payload)))
				if m := net.TryRecv(1, simnet.AnyKind, nil); m != nil {
					m.Free()
				}
			}), net.Close
		}},
		{name: "vclock.horizon64_ns", build: func() (func(int), func()) {
			clocks := make([]*vclock.Clock, 64)
			for i := range clocks {
				clocks[i] = &vclock.Clock{}
			}
			net := simnet.New(machine.Default().Ethernet, clocks)
			g := net.EnableGate()
			g.GateBegin()
			for p := 2; p < len(clocks); p++ {
				g.GateRecvWait(p) // a cluster mostly blocked in Recv: the slow path
			}
			g.GateEnd()
			return loop(func() { g.Horizon(0) }), net.Close
		}},

		{name: "simnet.sendrecv_ns", alloc: "simnet.sendrecv_allocs", build: sendRecv(0)},
		{name: "simnet.deepq_ns", hidden: true, build: sendRecv(4096)},

		{name: "amsg.call_ns", alloc: "amsg.call_allocs", build: func() (func(int), func()) {
			link, clocks := twoClocks()
			net := simnet.New(link, clocks)
			layer := amsg.New(net, link)
			const kind = simnet.UserKindBase + 7
			resp := make([]byte, 8)
			layer.Register(1, kind, func(amsg.NodeID, []byte) ([]byte, vclock.Duration) { return resp, 0 })
			req := make([]byte, 16)
			return loop(func() { layer.Call(0, 1, kind, req) }), net.Close
		}},

		{name: "memsim.home_lookup_ns", build: func() (func(int), func()) {
			space := memsim.NewSpace(4)
			r := must(space.Alloc(64*memsim.PageSize, "rung", memsim.Block, 0))
			first, i := memsim.PageOf(r.Base), 0
			return loop(func() { i = (i + 1) % 64; space.Home(first + memsim.PageID(i)) }), nop
		}},
		{name: "pagestore.frame_ns", build: func() (func(int), func()) {
			store, i := pagestore.New(), 0
			return loop(func() { i = (i + 1) % 64; store.Frame(memsim.PageID(i)) }), nop
		}},
		{name: "notices.take_ns", build: func() (func(int), func()) {
			board := notices.NewBoard()
			pages := []memsim.PageID{1, 2, 3, 4, 5, 6, 7, 8}
			buf := make([]memsim.PageID, 0, len(pages))
			return loop(func() {
				board.AddForOthers(0, 4, pages)
				for node := 1; node < 4; node++ {
					buf = board.TakeInto(node, buf[:0])
				}
			}), nop
		}},

		{name: "swdsm.local_read_ns", build: func() (func(int), func()) {
			d := must(swdsm.New(swdsm.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			return loop(func() { d.ReadF64(0, w.next()) }), d.Close
		}},
		{name: "swdsm.cached_read_ns", build: func() (func(int), func()) {
			d := must(swdsm.New(swdsm.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			return loop(func() { d.ReadF64(1, w.next()) }), d.Close
		}},
		{name: "swdsm.block_read_ns_per_word", per: 512, build: func() (func(int), func()) {
			d := must(swdsm.New(swdsm.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			dst := make([]float64, 512)
			return loop(func() { d.ReadF64Block(1, w.base, dst) }), d.Close
		}},
		{name: "swdsm.fault_ns", alloc: "swdsm.fault_allocs", per: 4, build: func() (func(int), func()) {
			// A cache of two pages under a working set of four: every
			// read fetches, installs and evicts.
			d := must(swdsm.New(swdsm.Config{Nodes: 2, CachePages: 2}))
			r := must(d.Alloc(4*memsim.PageSize, "rung", memsim.Fixed, 0))
			return loop(func() {
				for p := 0; p < 4; p++ {
					d.ReadF64(1, r.Base+memsim.Addr(p*memsim.PageSize))
				}
			}), d.Close
		}},
		{name: "swdsm.flush_ns_per_page", per: 16, build: func() (func(int), func()) {
			// One scope interval: node 1 dirties 16 remote pages and
			// releases (16 twins, 16 diffs), node 0 drains the notices.
			d := must(swdsm.New(swdsm.Config{Nodes: 2}))
			r := must(d.Alloc(16*memsim.PageSize, "rung", memsim.Fixed, 0))
			l := d.NewLock()
			var tick float64
			return loop(func() {
				tick++
				d.Acquire(1, l)
				for p := 0; p < 16; p++ {
					d.WriteF64(1, r.Base+memsim.Addr(p*memsim.PageSize), tick)
				}
				d.Release(1, l)
				d.Acquire(0, l)
				d.Release(0, l)
			}), d.Close
		}},
		{name: "swdsm.lock_rt_ns", build: func() (func(int), func()) {
			return lockRoundTrip(must(swdsm.New(swdsm.Config{Nodes: 2})))
		}},
		{name: "swdsm.barrier4_ns", build: func() (func(int), func()) {
			return barrier(must(swdsm.New(swdsm.Config{Nodes: 4})))
		}},

		// The cheapest repeatable read fault needs a write by the other
		// node first, so this rung is one invalidation plus one read
		// fault; write_fault is half of two alternating writers.
		{name: "ivy.read_fault_ns", build: func() (func(int), func()) {
			d := must(ivy.New(ivy.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			var tick float64
			return loop(func() { tick++; d.WriteF64(0, w.base, tick); d.ReadF64(1, w.base) }), d.Close
		}},
		{name: "ivy.write_fault_ns", per: 2, build: func() (func(int), func()) {
			d := must(ivy.New(ivy.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			var tick float64
			return loop(func() { tick++; d.WriteF64(0, w.base, tick); d.WriteF64(1, w.base, tick) }), d.Close
		}},
		{name: "ivy.lock_rt_ns", build: func() (func(int), func()) {
			return lockRoundTrip(must(ivy.New(ivy.Config{Nodes: 2})))
		}},
		{name: "ivy.barrier4_ns", build: func() (func(int), func()) {
			return barrier(must(ivy.New(ivy.Config{Nodes: 4})))
		}},

		{name: "hybriddsm.local_read_ns", build: func() (func(int), func()) {
			d := must(hybriddsm.New(hybriddsm.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			return loop(func() { d.ReadF64(0, w.next()) }), d.Close
		}},
		{name: "hybriddsm.remote_read_ns", build: func() (func(int), func()) {
			// Caching off, or the page would turn local after 16 reads.
			d := must(hybriddsm.New(hybriddsm.Config{Nodes: 2, CacheThreshold: -1}))
			w := fixedPage(d, "rung")
			return loop(func() { d.ReadF64(1, w.next()) }), d.Close
		}},
		{name: "hybriddsm.posted_write_ns", build: func() (func(int), func()) {
			d := must(hybriddsm.New(hybriddsm.Config{Nodes: 2}))
			w := fixedPage(d, "rung")
			return loop(func() { d.WriteF64(1, w.next(), 1) }), d.Close
		}},
		{name: "hybriddsm.lock_rt_ns", build: func() (func(int), func()) {
			return lockRoundTrip(must(hybriddsm.New(hybriddsm.Config{Nodes: 2})))
		}},

		{name: "smp.cached_read_ns", build: func() (func(int), func()) {
			s := must(smp.New(smp.Config{CPUs: 2}))
			w := fixedPage(s, "rung")
			return loop(func() { s.ReadF64(0, w.next()) }), s.Close
		}},
		{name: "smp.lock_rt_ns", build: func() (func(int), func()) {
			return lockRoundTrip(must(smp.New(smp.Config{CPUs: 2})))
		}},

		{name: "hsync.dlock_request_ns", build: func() (func(int), func()) {
			// Requesters rotate through a 64-node rack cluster, so every
			// request walks and compresses a hint chain.
			link := machine.Default().Ethernet
			cost := func(from, to, bytes int) vclock.Duration { return rackTopo.MsgCost(link, from, to, bytes) }
			steal := func(int, vclock.Duration) {}
			d := hsync.NewDLock(vclock.NewVLock(), 64, 0)
			node := 0
			return loop(func() { node = (node + 17) % 64; d.Request(node, 16, cost, steal, 1) }), nop
		}},
		{name: "hsync.tree_pathcost_ns", build: func() (func(int), func()) {
			link := machine.Default().Ethernet
			cost := func(from, to, bytes int) vclock.Duration { return rackTopo.MsgCost(link, from, to, bytes) }
			tree := hsync.NewTree(64, rackTopo)
			return loop(func() { tree.PathCost(63, 16, cost) }), nop
		}},
		{name: "hsync.barrier64_ns", per: 64, build: func() (func(int), func()) {
			return barrier(must(swdsm.New(swdsm.Config{Nodes: 64, Topology: rackTopo})))
		}},

		{name: "checkpoint.encode_ns_per_page", per: 64, build: func() (func(int), func()) {
			sn := &checkpoint.Snapshot{Seq: 1, BarrierCount: 4, Nodes: make([]checkpoint.NodeState, 1)}
			for p := 0; p < 64; p++ {
				sn.Nodes[0].Pages = append(sn.Nodes[0].Pages,
					checkpoint.PageCapture{Page: memsim.PageID(p), Full: make([]byte, memsim.PageSize)})
			}
			return loop(func() { checkpoint.Encode(sn) }), nop
		}},

		{name: "loadgen.arrival_ns", build: func() (func(int), func()) {
			a := loadgen.NewArrivals(1, 4000)
			return loop(func() { a.Take() }), nop
		}},
		{name: "loadgen.zipf_sample_ns", build: func() (func(int), func()) {
			// The key space of a 16-node serve cell.
			z, s := loadgen.NewZipf(16*8*128, 0.99), loadgen.NewStream(1)
			return loop(func() { z.Sample(s) }), nop
		}},
		{name: "loadgen.hist_add_ns", build: func() (func(int), func()) {
			var h loadgen.Hist
			s := loadgen.NewStream(1)
			return loop(func() { h.Add(s.Next() >> 40) }), nop
		}},

		{name: "perfmon.record_ns", build: func() (func(int), func()) {
			// Past its capacity the recorder only counts drops, which is
			// cheaper than recording; reset before that.
			rec := perfmon.New(1, 0)
			rec.Enable()
			left := perfmon.DefaultCapacity
			return loop(func() {
				if left--; left < 0 {
					rec.Reset()
					left = perfmon.DefaultCapacity
				}
				rec.Record(0, perfmon.EvPageFault, 1, 2, 3, 4)
			}), nop
		}},
		{name: "perfmon.disabled_ns", build: func() (func(int), func()) {
			rec := perfmon.New(1, 0)
			return loop(func() {
				if rec.Enabled() {
					rec.Record(0, perfmon.EvPageFault, 1, 2, 3, 4)
				}
			}), nop
		}},
	}
}

// An overhead rung is the difference between a call through a veneer
// (over) and the call underneath it (base): the host-time counterpart of
// Figure 2.
type overheadRung struct {
	name       string
	over, base func() (run func(n int), teardown func())
}

func overheadRungs() []overheadRung {
	cfg := hamster.Config{Platform: hamster.SWDSM, Nodes: 2}
	return []overheadRung{
		{name: "core.env_read_overhead_ns",
			over: func() (func(int), func()) {
				rt := must(hamster.New(cfg))
				w, e := fixedPage(rt.Substrate(), "rung"), rt.Env(0)
				return loop(func() { e.ReadF64(w.next()) }), rt.Close
			},
			base: func() (func(int), func()) {
				rt := must(hamster.New(cfg))
				w, sub := fixedPage(rt.Substrate(), "rung"), rt.Substrate()
				return loop(func() { sub.ReadF64(0, w.next()) }), rt.Close
			}},
		{name: "core.sync_overhead_ns",
			over: func() (func(int), func()) {
				rt := must(hamster.New(cfg))
				e, l := rt.Env(1), rt.Env(0).Sync.NewLock()
				return loop(func() { e.Sync.Lock(l); e.Sync.Unlock(l) }), rt.Close
			},
			base: func() (func(int), func()) {
				rt := must(hamster.New(cfg))
				run, _ := lockRoundTrip(rt.Substrate())
				return run, rt.Close
			}},
		{name: "models.jiajia_call_overhead_ns",
			over: func() (func(int), func()) {
				sys := must(jiajia.Boot(cfg))
				w := fixedPage(sys.Runtime().Substrate(), "rung")
				// A Jia handle exists only inside Run; node 0 makes the
				// calls, node 1 returns at once. The base does the same.
				return func(n int) {
					sys.Run(func(j *jiajia.Jia) {
						for i := 0; j.Pid() == 0 && i < n; i++ {
							j.ReadF64(w.next())
						}
					})
				}, sys.Shutdown
			},
			base: func() (func(int), func()) {
				rt := must(hamster.New(cfg))
				w := fixedPage(rt.Substrate(), "rung")
				return func(n int) {
					rt.Run(func(e *hamster.Env) {
						for i := 0; e.ID() == 0 && i < n; i++ {
							e.ReadF64(w.next())
						}
					})
				}, rt.Close
			}},
	}
}
