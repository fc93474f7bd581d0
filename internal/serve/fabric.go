package serve

import (
	"fmt"
	"math/bits"

	"hamster/internal/apps"
	"hamster/internal/loadgen"
	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

// nodeState is one node's view of a run. Everything here is touched
// only by the owning node's goroutine.
type nodeState struct {
	cfg Config
	m   apps.Machine
	l   *layout
	id  int
	n   int

	isProd bool
	isCons bool

	perNodeSessions uint64
	sessBase        uint64

	arr  *loadgen.Arrivals
	dec  loadgen.Stream
	zipf *loadgen.Zipf

	// Round-boundary state (captured by the checkpoint blob).
	round    int64
	inited   bool
	pendq    [][]op     // per-consumer backpressure carryover
	written  []uint64   // self as producer: cumulative pushes per consumer
	consumed []uint64   // self as consumer: cumulative pops per producer
	wmirror  [][]uint64 // wcur mirror from the last ingest phase
	pmirror  []uint64   // carryover counts from the last ingest phase

	routed, applied, stalled uint64
	sessBits                 []uint64
	hist                     loadgen.Hist
	nextFree                 uint64
	opDigest                 uint64
	loserDigest              uint64
	loserCur                 uint64
	shardOps                 []uint64
	shardSvcNs               []uint64
	lockWaitNs               uint64
	sweep                    []bool // shards dirtied by the last apply phase

	// Transient (rebuilt every round, never checkpointed).
	acked   []uint64 // acur mirror for self, refreshed each route phase
	queue   []op     // this round's pops: one run per producer, in arrival order
	merge   runMerge // walks queue's runs in (arrival, producer) order
	ringBuf []int64
	ioBuf   []int64
	ckpt    bool   // a checkpoint service captured our blob
	blob    []byte // committed round-boundary snapshot
	t0      vclock.Time
}

func newNodeState(cfg Config, m apps.Machine, zipf *loadgen.Zipf) *nodeState {
	n := m.N()
	l := buildLayout(cfg, n)
	st := &nodeState{
		cfg: cfg, m: m, l: l, id: m.ID(), n: n,
		isProd: m.ID() < l.prods,
		isCons: cfg.Workload != WorkloadPipeline || m.ID() >= l.prods,
	}
	st.perNodeSessions = (cfg.Sessions + uint64(l.prods) - 1) / uint64(l.prods)
	if st.perNodeSessions == 0 {
		st.perNodeSessions = 1
	}
	st.sessBase = uint64(st.id) * st.perNodeSessions
	st.arr = loadgen.NewArrivals(cfg.Seed^loadgen.Mix64(uint64(st.id)*2+1), cfg.MeanGapNs)
	st.dec = *loadgen.NewStream(cfg.Seed ^ loadgen.Mix64(uint64(st.id)*2+2))
	st.zipf = zipf
	st.pendq = make([][]op, n)
	st.written = make([]uint64, n)
	st.consumed = make([]uint64, n)
	st.wmirror = make([][]uint64, n)
	for i := range st.wmirror {
		st.wmirror[i] = make([]uint64, n)
	}
	st.pmirror = make([]uint64, n)
	st.sessBits = make([]uint64, (st.perNodeSessions+63)/64)
	st.shardOps = make([]uint64, l.shards)
	st.shardSvcNs = make([]uint64, l.shards)
	st.sweep = make([]bool, l.shards)
	st.acked = make([]uint64, n)
	st.merge = newRunMerge(st.id, l.prods)
	st.ringBuf = make([]int64, ringSlots*slotWords)
	st.ioBuf = make([]int64, n+1)
	return st
}

// allocRegions performs the collective allocations in a fixed order.
// All region page counts divide evenly by the node count, so Block
// placement realizes exactly the homes the layout arithmetic assumes.
func (st *nodeState) allocRegions() {
	l, m := st.l, st.m
	l.kv = m.Alloc(uint64(l.shards)*memsim.PageSize, "serve.kv", memsim.Block)
	l.ring = m.Alloc(uint64(st.n*st.n)*ringBytes, "serve.ring", memsim.Block)
	l.wcur = m.Alloc(uint64(st.n)*memsim.PageSize, "serve.wcur", memsim.Block)
	l.acur = m.Alloc(uint64(st.n)*memsim.PageSize, "serve.acur", memsim.Block)
	l.stat = m.Alloc(uint64(st.n)*memsim.PageSize, "serve.stat", memsim.Block)
	if st.cfg.Workload == WorkloadSyncLog {
		l.loser = m.Alloc(uint64(st.n)*memsim.PageSize, "serve.loser", memsim.Block)
	}
}

// register wires the round-boundary blob into the machine's checkpoint
// service when it has one. The blob is committed only at round
// boundaries; a seal at a mid-round barrier therefore restores to the
// round's start, and the route/ingest phases are idempotent
// re-executions (absolute cumulative cursors, positional slot writes),
// so resuming from any barrier replays without losing or doubling ops.
func (st *nodeState) register() {
	if c, ok := st.m.(apps.Checkpointer); ok {
		st.ckpt = c.RegisterCheckpointable("serve.state",
			func() []byte { return st.blob },
			st.restore)
	}
	st.commit()
}

// warmup claims every page this node homes with one write, so that
// ownership-migrating engines (ivy) settle into the steady layout
// before measurement, and first-fault costs land outside the loop.
func (st *nodeState) warmup() {
	if !st.inited {
		l, m := st.l, st.m
		for s := 0; s < l.shards; s++ {
			if l.shardHome(s) == st.id {
				m.WriteI64(l.kv+memsim.Addr(s)*memsim.PageSize, 0)
			}
		}
		for p := 0; p < st.n; p++ {
			base := l.ring + memsim.Addr(uint64(st.id*st.n+p)*ringBytes)
			for pg := 0; pg < ringBytes/memsim.PageSize; pg++ {
				m.WriteI64(base+memsim.Addr(pg)*memsim.PageSize, 0)
			}
		}
		m.WriteI64(l.wcurAddr(st.id), 0)
		m.WriteI64(l.acurAddr(st.id), 0)
		m.WriteI64(l.statAddr(st.id), 0)
		if st.cfg.Workload == WorkloadSyncLog {
			m.WriteI64(l.loserAddr(st.id), 0)
		}
		st.inited = true
		st.commit()
	}
	st.m.Barrier()
}

// runFabric executes the routed workload: rounds of route/ingest/apply
// until every generated op has been consumed and applied.
func (st *nodeState) runFabric() NodeResult {
	maxRounds := int64(st.cfg.Windows)*4 + 64
	for {
		if st.round > maxRounds {
			panic(fmt.Sprintf("serve: node %d still draining after %d rounds (windows=%d) — fabric stuck",
				st.id, st.round, st.cfg.Windows))
		}
		if st.phaseRoute() {
			break
		}
		st.m.Barrier()
		st.phaseIngest()
		st.m.Barrier()
		st.phaseApply()
		st.m.Barrier()
	}
	return st.finish()
}

// phaseRoute is phase A: termination check, dirty-shard latch sweep,
// arrival generation, and ring publication. Returns true when the run
// is complete (all nodes agree — the predicate reads only barrier-
// published shared state).
func (st *nodeState) phaseRoute() bool {
	l, m, n := st.l, st.m, st.n
	// Refresh consumption cursors: acur rows feed both the producers'
	// backpressure capacity and the global termination predicate.
	abuf := st.ioBuf[:l.prods]
	var consumedTotal uint64
	for c := 0; c < n; c++ {
		m.ReadI64Block(l.acurAddr(c), abuf)
		for p := 0; p < l.prods; p++ {
			consumedTotal += uint64(abuf[p])
		}
		if st.isProd {
			st.acked[c] = uint64(abuf[st.id])
		}
	}
	var writtenTotal, pendingTotal uint64
	for p := 0; p < l.prods; p++ {
		pendingTotal += st.pmirror[p]
		for c := 0; c < n; c++ {
			writtenTotal += st.wmirror[p][c]
		}
	}
	if st.round >= int64(st.cfg.Windows) && pendingTotal == 0 && writtenTotal == consumedTotal {
		return true
	}

	// Latch sweep: take and drop each shard lock dirtied by the last
	// apply phase. This is the shard server's batch-latching discipline;
	// it also flushes the shard pages' write notices through the lock
	// tier instead of letting them pile up unacknowledged.
	for s := 0; s < l.shards; s++ {
		if st.sweep[s] {
			st.sweep[s] = false
			t0 := m.Now()
			m.Lock(s)
			m.Unlock(s)
			st.lockWaitNs += uint64(vclock.Since(t0, m.Now()))
		}
	}

	if !st.isProd {
		return false
	}
	// Drain this window's arrivals. Three stream draws per op — kind,
	// key rank, session — so the draw schedule is a pure function of
	// the op index.
	var generated uint64
	if st.round < int64(st.cfg.Windows) {
		windowEnd := (uint64(st.round) + 1) * st.cfg.WindowNs
		for st.arr.Peek() < windowEnd {
			t := st.arr.Take()
			kindDraw := st.dec.Next() % 100
			rank := st.zipf.Sample(&st.dec)
			sess := st.dec.Next() % st.perNodeSessions
			key := l.keyFor(rank)
			shard, _ := l.shardOf(key)
			o := op{key: key, kind: st.kindFor(kindDraw), arrival: t, session: st.sessBase + sess}
			st.markSession(sess)
			c := l.shardHome(shard)
			st.pendq[c] = append(st.pendq[c], o)
			st.routed++
			generated++
		}
	}
	// Push per-consumer queues into the rings, up to each ring's free
	// capacity; the overflow carries over and counts as stall events.
	var pushed, pendLeft uint64
	for c := 0; c < n; c++ {
		q := st.pendq[c]
		avail := ringSlots - int(st.written[c]-st.acked[c])
		k := len(q)
		if k > avail {
			k = avail
		}
		if k > 0 {
			st.writeRing(c, int(st.written[c]), q[:k])
			st.written[c] += uint64(k)
			pushed += uint64(k)
		}
		st.stalled += uint64(len(q) - k)
		pendLeft += uint64(len(q) - k)
		st.pendq[c] = append(st.pendq[c][:0], q[k:]...)
	}
	// Publish the write cursors and carryover count.
	wbuf := st.ioBuf[:n+1]
	for c := 0; c < n; c++ {
		wbuf[c] = int64(st.written[c])
	}
	wbuf[n] = int64(pendLeft)
	m.WriteI64Block(l.wcurAddr(st.id), wbuf)
	m.Compute((generated + pushed) * routeFlops)
	return false
}

// writeRing publishes ops into ring (self → c) starting at cursor
// start, wrapping at the ring size (at most two block writes).
func (st *nodeState) writeRing(c, start int, ops []op) {
	for i := 0; i < len(ops); {
		idx := (start + i) % ringSlots
		run := ringSlots - idx
		if run > len(ops)-i {
			run = len(ops) - i
		}
		buf := st.ringBuf[:run*slotWords]
		for j := 0; j < run; j++ {
			o := ops[i+j]
			buf[slotWords*j] = int64(o.key)
			buf[slotWords*j+1] = o.kind
			buf[slotWords*j+2] = int64(o.arrival)
			buf[slotWords*j+3] = int64(o.session)
		}
		st.m.WriteI64Block(st.l.ringSlot(st.id, c, idx), buf)
		i += run
	}
}

// phaseIngest is phase B: every node mirrors the producers' cursors
// (the termination predicate needs the global view), and consumers pop
// their rings, one contiguous run per producer, and record each run's
// bounds for the apply phase's merge. A run is in arrival order: the
// carry-over in pendq is older than the window's new arrivals, and the
// ring is FIFO.
func (st *nodeState) phaseIngest() {
	l, m, n := st.l, st.m, st.n
	wbuf := st.ioBuf[:n+1]
	for p := 0; p < l.prods; p++ {
		m.ReadI64Block(l.wcurAddr(p), wbuf)
		for c := 0; c < n; c++ {
			st.wmirror[p][c] = uint64(wbuf[c])
		}
		st.pmirror[p] = uint64(wbuf[n])
	}
	if !st.isCons {
		return
	}
	st.queue = st.queue[:0]
	for p := 0; p < l.prods; p++ {
		start := len(st.queue)
		newOps := st.wmirror[p][st.id] - st.consumed[p]
		if newOps > 0 {
			st.readRing(p, int(st.consumed[p]), int(newOps))
			st.consumed[p] += newOps
		}
		st.merge.setRun(p, start, len(st.queue))
	}
	abuf := st.ioBuf[:l.prods]
	for p := 0; p < l.prods; p++ {
		abuf[p] = int64(st.consumed[p])
	}
	m.WriteI64Block(l.acurAddr(st.id), abuf)
}

// readRing pops count ops from ring (p → self) starting at cursor
// start (at most two block reads).
func (st *nodeState) readRing(p, start, count int) {
	for i := 0; i < count; {
		idx := (start + i) % ringSlots
		run := ringSlots - idx
		if run > count-i {
			run = count - i
		}
		buf := st.ringBuf[:run*slotWords]
		st.m.ReadI64Block(st.l.ringSlot(p, st.id, idx), buf)
		for j := 0; j < run; j++ {
			st.queue = append(st.queue, op{
				key:     uint64(buf[slotWords*j]),
				kind:    buf[slotWords*j+1],
				arrival: uint64(buf[slotWords*j+2]),
				session: uint64(buf[slotWords*j+3]),
			})
		}
		i += run
	}
}

// phaseApply is phase C: consumers execute the queue, merged into
// (arrival, producer) order, against their home-local shard pages. The
// phase is communication-free by layout and service times come from the
// serviceNs model table, so the latency histogram is bit-deterministic
// on every substrate, engine, and goroutine schedule.
func (st *nodeState) phaseApply() {
	if st.isCons {
		st.merge.start(st.queue)
		for i, ok := st.merge.pop(); ok; i, ok = st.merge.pop() {
			q := &st.queue[i]
			digest, shard := st.apply(q)
			st.m.Compute(applyFlops)
			svc := serviceNs(q.kind)
			// Single-server queue model: service starts when the
			// consumer frees up, never before the op has crossed the
			// routing hop.
			start := st.nextFree
			if a := q.arrival + pipeHopNs; a > start {
				start = a
			}
			done := start + svc
			st.hist.Add(done - q.arrival)
			st.nextFree = done
			st.applied++
			st.opDigest += digest
			st.shardOps[shard]++
			st.shardSvcNs[shard] += svc
			st.sweep[shard] = true
		}
	}
	st.round++
	st.commit()
}

// serviceNs returns the modeled per-op service time of the queue
// model, by op kind. Deliberately a model table rather than a clock
// delta: concurrent protocol traffic steals handler charges onto the
// consumer's clock at schedule-dependent instants, and the latency
// histogram must stay a pure function of the op stream. The substrate
// is still charged its real access costs in apply — virtual-time
// attribution is unaffected; only the queue model reads this table.
func serviceNs(kind int64) uint64 {
	switch kind {
	case opScan:
		return 900 // reads a scanSlots-slot stripe
	case opPut, opEvent:
		return 380 // read-modify-write of one slot
	case opPush:
		return 420 // LWW merge, possible loser preservation
	default: // opGet, opPull: one slot read + digest fold
		return 300
	}
}

// finish folds the shard pages into the global checksum through the
// stat pages: every node folds what it homes, publishes, and reads all
// folds back, so each node independently computes the identical global
// checksum and totals.
func (st *nodeState) finish() NodeResult {
	l, m := st.l, st.m
	var fold uint64
	page := make([]int64, memsim.PageSize/8)
	for s := 0; s < l.shards; s++ {
		if l.shardHome(s) != st.id {
			continue
		}
		m.ReadI64Block(l.kv+memsim.Addr(s)*memsim.PageSize, page)
		for i, w := range page {
			if w != 0 {
				fold += loadgen.Mix64(uint64(w) ^ loadgen.Mix64(uint64(s*len(page)+i)))
			}
		}
	}
	fold += st.loserDigest
	var sessions uint64
	for _, w := range st.sessBits {
		sessions += uint64(bits.OnesCount64(w))
	}
	sbuf := []int64{int64(fold), int64(st.routed), int64(st.applied), int64(st.stalled), int64(sessions)}
	m.WriteI64Block(l.statAddr(st.id), sbuf)
	m.Barrier()
	nr := NodeResult{
		Node:       st.id,
		Rounds:     st.round,
		Routed:     st.routed,
		Applied:    st.applied,
		Stalled:    st.stalled,
		Sessions:   sessions,
		Hist:       st.hist,
		OpDigest:   st.opDigest,
		BusyNs:     st.nextFree,
		LockWaitNs: st.lockWaitNs,
		ShardOps:   st.shardOps,
		ShardSvcNs: st.shardSvcNs,
	}
	rbuf := make([]int64, len(sbuf))
	for i := 0; i < st.n; i++ {
		m.ReadI64Block(l.statAddr(i), rbuf)
		nr.Checksum = loadgen.Mix64(nr.Checksum ^ uint64(rbuf[0]))
		nr.TotalRouted += uint64(rbuf[1])
		nr.TotalApplied += uint64(rbuf[2])
		nr.TotalStalled += uint64(rbuf[3])
		nr.TotalSessions += uint64(rbuf[4])
	}
	m.Barrier()
	return nr
}

func (st *nodeState) markSession(local uint64) {
	st.sessBits[local/64] |= 1 << (local % 64)
}

// NodeResult is one node's outcome. Checksum and the Total* fields are
// global (identical on every node); the rest are per-node.
type NodeResult struct {
	Node       int
	Rounds     int64
	Routed     uint64
	Applied    uint64
	Stalled    uint64
	Sessions   uint64
	Hist       loadgen.Hist
	OpDigest   uint64
	BusyNs     uint64
	LockWaitNs uint64
	ShardOps   []uint64
	ShardSvcNs []uint64

	Checksum      uint64
	TotalRouted   uint64
	TotalApplied  uint64
	TotalStalled  uint64
	TotalSessions uint64
}

// sectionAdder is the optional Machine extension for attaching a
// monitor report section (implemented by the core-services bindings).
type sectionAdder interface {
	AddReportSection(title string, render func() string)
}

// runNode is the SPMD body: one node's full run, depositing the rich
// result into out[id] and returning the apps-level summary.
func runNode(cfg Config, m apps.Machine, zipf *loadgen.Zipf, out []NodeResult) apps.Result {
	st := newNodeState(cfg, m, zipf)
	st.t0 = m.Now()
	if sa, ok := m.(sectionAdder); ok {
		id := st.id
		sa.AddReportSection("", func() string {
			return renderNodeSection(cfg, st.l, &out[id])
		})
	}
	st.allocRegions()
	st.register()
	st.warmup()
	nr := st.runFabric()
	out[m.ID()] = nr
	return apps.Result{
		Check: float64(nr.Checksum % (1 << 52)),
		T:     apps.Timings{Total: vclock.Since(st.t0, m.Now())},
	}
}

// Kernel adapts a serve run to the apps.Kernel shape so every existing
// runner (bare substrate, core services, jiajia, recoverable) can
// execute it. out must have one slot per node. The key-popularity table
// is built here, once per run: every node, and a recovered node that
// re-runs the kernel, samples the same immutable table.
func Kernel(cfg Config, out []NodeResult) apps.Kernel {
	zipf := loadgen.NewZipf(buildLayout(cfg, len(out)).keys, cfg.ZipfSkew)
	return func(m apps.Machine) apps.Result { return runNode(cfg, m, zipf, out) }
}
