package bench

import (
	"fmt"

	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/simnet"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// Allocation probes for the hot paths the zero-copy work targets: one
// remote page-fetch cycle, one simnet message send/receive, and one
// scope-consistency release flushing K dirty pages. Each probe returns a
// steady-state op plus a teardown; the same ops feed the
// testing.AllocsPerRun regression gates (allocs_test.go) and the
// -benchmem microbenchmarks — so the gated number is the reported number.

// pageFetchProbe builds a 2-node software DSM whose page cache is smaller
// than the probed working set: every read from node 1 misses, fetches the
// page from its home (node 0), installs it, and evicts the LRU victim.
// One op performs `pages` full fetch+install+evict cycles. Steady state
// must not allocate: reply buffers, cache entries, and request encoders
// all recycle through pools.
func pageFetchProbe() (op func(), close func(), err error) {
	const pages = 4
	d, err := swdsm.New(swdsm.Config{Nodes: 2, CachePages: pages / 2})
	if err != nil {
		return nil, nil, err
	}
	r, err := d.Alloc(pages*memsim.PageSize, "fetchprobe", memsim.Fixed, 0)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	op = func() {
		for i := 0; i < pages; i++ {
			d.ReadF64(1, r.Base+memsim.Addr(i*memsim.PageSize))
		}
	}
	return op, d.Close, nil
}

// messageSendProbe drives the raw simulated network: one op sends a
// payload from node 0 to node 1, receives it, and returns the Message to
// the pool. The payload buffer is owned by the probe and reused, so a
// zero-alloc op certifies the whole per-message path — fault-state load,
// stats, enqueue, dequeue — free of per-message garbage.
func messageSendProbe() (op func(), close func()) {
	clocks := []*vclock.Clock{{}, {}}
	net := simnet.New(machine.Default().Ethernet, clocks)
	payload := make([]byte, 64)
	op = func() {
		net.Send(0, 1, 1, 0, payload)
		if m := net.TryRecv(1, simnet.AnyKind, nil); m != nil {
			m.Free()
		}
	}
	return op, net.Close
}

// gatedExchangeProbe drives the conservatively gated message path: a
// 2-node network with the lookahead engine enabled, both nodes owned by
// the probe's goroutine. Node 0 sends, node 1's clock is advanced past
// the horizon, and the gated Recv path (engine session, safety check,
// indexed dequeue) delivers. One op certifies the gating hot path
// allocation-free, horizon evaluation included: the safety check finds
// the engine's published table (the sender's clock as of its send) short
// of the arrival, republishes the live clocks and decides from the
// refreshed table.
func gatedExchangeProbe() (op func(), close func()) {
	clocks := []*vclock.Clock{{}, {}}
	link := machine.Default().Ethernet
	net := simnet.New(link, clocks)
	net.EnableGate()
	payload := make([]byte, 64)
	op = func() {
		net.Send(0, 1, 1, 0, payload)
		// Push the sender's clock past the arrival so delivery is safe on
		// the fast path (clock + lookahead ≥ arrival).
		clocks[0].Advance(2 * vclock.Duration(link.LatencyNs+64*link.NsPerByte))
		if m := net.TryRecv(1, simnet.AnyKind, nil); m == nil {
			panic("gatedExchangeProbe: delivery not safe")
		} else {
			m.Free()
		}
	}
	return op, net.Close
}

// horizonProbe exercises the engine's slow-path horizon bound — the
// Dijkstra activation pass over receive-waiting peers — at a 64-node
// cluster, certifying that repeated evaluation reuses the engine's
// scratch and allocates nothing.
func horizonProbe() (op func(), close func()) {
	const nodes = 64
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	net := simnet.New(machine.Default().Ethernet, clocks)
	g := net.EnableGate()
	g.GateBegin()
	for p := 2; p < nodes; p++ {
		g.GateRecvWait(p) // a cluster mostly blocked in Recv
	}
	g.GateEnd()
	op = func() {
		g.Horizon(0)
	}
	return op, net.Close
}

// deepQueueProbe drives one send/receive of a "hot" message kind while a
// backlog of `backlog` messages of a different kind sits in the same
// endpoint's queue. The per-(node, kind) bucket index means the receive
// scans only its own kind's bucket, so the op's cost — and its zero
// allocations — must be independent of the cold backlog's depth; the
// paired microbenchmark (BenchmarkDeepQueueRecv) reports both depths so
// a regression to the old full-queue match scan is visible as a
// depth-proportional slowdown.
func deepQueueProbe(backlog int) (op func(), close func()) {
	clocks := []*vclock.Clock{{}, {}}
	net := simnet.New(machine.Default().Ethernet, clocks)
	payload := make([]byte, 64)
	const hot, cold = simnet.Kind(1), simnet.Kind(2)
	for i := 0; i < backlog; i++ {
		net.Send(0, 1, cold, uint32(i), payload)
	}
	op = func() {
		net.Send(0, 1, hot, 0, payload)
		if m := net.TryRecv(1, hot, nil); m != nil {
			m.Free()
		}
	}
	return op, net.Close
}

// diffFlushProbe builds a 2-node DSM with batched diff flush on. One op
// is a full scope interval: node 1 acquires, writes one word on each of K
// remote pages (creating K twins), and releases — flushing all K diffs in
// home-grouped batches — then node 0 acquires and releases to drain the
// write notices. The allocation gate asserts the MARGINAL cost of a
// flushed page is zero: ops at K=64 must allocate no more than ops at
// K=8, because twins, diffs, encoders, and reply buffers are pooled and
// only the per-flush bookkeeping (notice list, batch map) allocates.
func diffFlushProbe(k int) (op func(), close func(), err error) {
	d, err := swdsm.New(swdsm.Config{
		Nodes:       2,
		CachePages:  2 * k,
		Aggregation: swdsm.Aggregation{Batch: true},
	})
	if err != nil {
		return nil, nil, err
	}
	r, err := d.Alloc(uint64(k)*memsim.PageSize, fmt.Sprintf("flushprobe%d", k), memsim.Fixed, 0)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	l := d.NewLock()
	var tick float64
	op = func() {
		tick++ // distinct value each interval so every diff is non-empty
		d.Acquire(1, l)
		for i := 0; i < k; i++ {
			d.WriteF64(1, r.Base+memsim.Addr(i*memsim.PageSize), tick)
		}
		d.Release(1, l)
		d.Acquire(0, l)
		d.Release(0, l)
	}
	return op, d.Close, nil
}
