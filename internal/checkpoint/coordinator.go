package checkpoint

import (
	"fmt"
	"sync"

	"hamster/internal/amsg"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// kindCommit is the reserved active-message kind of the capture commit
// (below simnet.UserKindBase; registered on the coordinator node only).
const kindCommit amsg.Kind = 1001

// commitCost is the coordinator-side service cost of accepting one
// node's capture commit.
const commitCost vclock.Duration = 300

// Options parameterizes a Coordinator.
type Options struct {
	// Every captures a checkpoint at every Nth framework barrier.
	Every int
	// Incremental enables dirty-page delta capture after the first full
	// snapshot of the run.
	Incremental bool
	// Sink receives sealed snapshots; nil selects an in-memory ring of the
	// last DefaultKeep epochs.
	Sink Sink
	// PageCopyNs and DiffScanNs are the modeled per-page capture costs
	// (the substrate's cost model, so checkpoint work is priced like the
	// protocol work it mirrors).
	PageCopyNs vclock.Duration
	DiffScanNs vclock.Duration
	// AppState, when set, collects a node's registered model-level state
	// blobs at capture (core's RegisterCheckpointable hook). Called on
	// the node's own goroutine.
	AppState func(node int) [][]byte
}

// Coordinator captures coordinated snapshots at barrier epochs. One
// instance serves one runtime; AtBarrier is called by every node's own
// goroutine at every framework barrier crossing.
//
// The capture protocol, per participating node: capture own pages →
// commit to node 0 over the active-message layer (synchronous and
// exactly-once, so a crashed peer is detected here at the latest) →
// first rendezvous (quiescent-instant clock reconciliation) → deposit
// clock reading and state; node 0 additionally snapshots the address
// space inside the quiescent window → second rendezvous → node 0 seals
// the snapshot to the sink. Sealing requires every node's arrival, so
// the sink never holds a torn snapshot, and everything deposited is a
// pure function of program state — captures replay bit-identically.
type Coordinator struct {
	opts   Options
	prov   Provider
	layer  *amsg.Layer
	clocks []*vclock.Clock
	rec    *perfmon.Recorder
	nodes  int
	sink   Sink
	vb     *vclock.VBarrier

	// counts are per-node barrier-crossing counters; each node touches
	// only its own slot from its own goroutine.
	counts []uint64
	// shadow holds per-node copies of each home page as of its last
	// capture — the diff baseline. Owner-node access only.
	shadow  []map[memsim.PageID][]byte
	hasBase []bool

	mu       sync.Mutex
	pending  map[uint64]*Snapshot // capture index -> snapshot being assembled
	captures int
	bytes    uint64
}

// NewCoordinator builds a coordinator over a provider. clocks must be
// the substrate's per-node clocks; rec may be nil.
func NewCoordinator(opts Options, prov Provider, layer *amsg.Layer, clocks []*vclock.Clock, rec *perfmon.Recorder) (*Coordinator, error) {
	if opts.Every <= 0 {
		return nil, fmt.Errorf("checkpoint: capture interval must be positive, got %d", opts.Every)
	}
	sink := opts.Sink
	if sink == nil {
		sink = NewMemorySink(DefaultKeep)
	}
	c := &Coordinator{
		opts:    opts,
		prov:    prov,
		layer:   layer,
		clocks:  clocks,
		rec:     rec,
		nodes:   len(clocks),
		sink:    sink,
		vb:      vclock.NewVBarrier(len(clocks)),
		counts:  make([]uint64, len(clocks)),
		shadow:  make([]map[memsim.PageID][]byte, len(clocks)),
		hasBase: make([]bool, len(clocks)),
		pending: make(map[uint64]*Snapshot),
	}
	c.layer.Register(0, kindCommit, func(amsg.NodeID, []byte) ([]byte, vclock.Duration) {
		return nil, commitCost
	})
	if opts.Incremental {
		prov.SetCheckpointTracking(true)
	}
	return c, nil
}

// Stats reports sealed captures and their summed payload bytes.
func (c *Coordinator) Stats() (captures int, bytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.captures, c.bytes
}

// Seed primes a fresh coordinator with a restored run's position: the
// barrier count captures resume from, and (for incremental mode) the
// restored page images as diff baselines. Call before any node runs.
func (c *Coordinator) Seed(rs *RestoreSet) {
	for i := range c.counts {
		c.counts[i] = rs.BarrierCount
	}
	if !c.opts.Incremental {
		return
	}
	for node, nr := range rs.Nodes {
		if node >= c.nodes {
			break
		}
		m := make(map[memsim.PageID][]byte, len(nr.Pages))
		for p, data := range nr.Pages {
			m[p] = append([]byte(nil), data...)
		}
		c.shadow[node] = m
		c.hasBase[node] = true
	}
}

// AtBarrier advances the node's barrier count and captures when the
// interval elapses. Called on the node's own goroutine immediately after
// the substrate barrier — the quiescent cut.
func (c *Coordinator) AtBarrier(node int) {
	c.counts[node]++
	if c.counts[node]%uint64(c.opts.Every) != 0 {
		return
	}
	c.capture(node, c.counts[node])
}

func (c *Coordinator) capture(node int, barrierCount uint64) {
	clk := c.clocks[node]
	t0 := clk.Now()
	capIdx := barrierCount / uint64(c.opts.Every)
	seq := capIdx // Seq*Every == BarrierCount, preserved across resume
	if rec := c.rec; rec != nil && rec.Enabled() {
		rec.Record(node, perfmon.EvCkptBegin, t0, 0, seq, barrierCount)
	}
	incremental := c.opts.Incremental && c.hasBase[node]
	caps, captured := c.capturePages(node, incremental)
	c.hasBase[node] = true
	cached := c.prov.CachedPages(node)
	var app [][]byte
	if c.opts.AppState != nil {
		app = c.opts.AppState(node)
	}

	// Commit to the coordinator node before the rendezvous: synchronous
	// and exactly-once, so a fail-stopped coordinator (or an unreachable
	// committer) surfaces here instead of hanging the capture.
	if _, err := c.layer.CallErr(amsg.NodeID(node), 0, kindCommit, nil); err != nil {
		panic(fmt.Sprintf("checkpoint: node %d cannot commit snapshot %d: %v", node, seq, err))
	}

	c.vb.Arrive(clk, 0, 0)

	// Quiescent window: every clock reconciled to the capture instant,
	// no traffic in flight. Deposit this node's state; node 0 also
	// snapshots the shared tables here, before anyone can run on.
	bd := clk.Breakdown()
	c.mu.Lock()
	snap := c.pending[capIdx]
	if snap == nil {
		snap = &Snapshot{Nodes: make([]NodeState, c.nodes)}
		c.pending[capIdx] = snap
	}
	snap.Nodes[node] = NodeState{
		Epoch:  c.prov.ProtocolEpoch(node),
		Clock:  bd,
		Pages:  caps,
		Cached: cached,
		App:    app,
	}
	if node == 0 {
		snap.Space = c.prov.Space().Snapshot()
		snap.Locks = c.prov.LockCount()
		snap.Seq = seq
		snap.BarrierCount = barrierCount
		snap.Incremental = incremental
		if incremental {
			snap.BaseSeq = seq - 1
		}
	}
	c.mu.Unlock()

	c.vb.Arrive(clk, 0, 0)

	if rec := c.rec; rec != nil && rec.Enabled() {
		rec.Record(node, perfmon.EvCkptEnd, t0, vclock.Since(t0, clk.Now()), seq, captured)
	}
	if node != 0 {
		return
	}
	// Seal: all deposits are in (the second rendezvous guarantees it)
	// and sealing itself is pure local work plus the sink — it cannot
	// fail partway, so the sink's newest snapshot is always whole.
	c.mu.Lock()
	snap = c.pending[capIdx]
	delete(c.pending, capIdx)
	c.captures++
	c.bytes += snap.Bytes()
	c.mu.Unlock()
	if err := c.sink.Append(snap); err != nil {
		panic(fmt.Sprintf("checkpoint: sealing snapshot %d: %v", seq, err))
	}
}

// capturePages collects the node's home-frame payloads: every resident
// page (full mode) or diffs of the pages dirtied since the last capture
// against their shadow copies (incremental mode). Charges deterministic
// virtual costs: a page copy per page read, a diff scan per diffed page.
func (c *Coordinator) capturePages(node int, incremental bool) ([]PageCapture, uint64) {
	clk := c.clocks[node]
	if c.opts.Incremental && c.shadow[node] == nil {
		c.shadow[node] = make(map[memsim.PageID][]byte)
	}
	shadow := c.shadow[node]
	buf := pagestore.GetPage()
	defer pagestore.PutPage(buf)
	var caps []PageCapture
	var captured uint64
	if !incremental {
		for _, p := range c.prov.CheckpointPages(node) {
			if !c.prov.ReadPage(node, p, buf) {
				continue
			}
			clk.AdvanceCat(vclock.CatMemory, c.opts.PageCopyNs)
			data := append([]byte(nil), buf...)
			caps = append(caps, PageCapture{Page: p, Full: data})
			captured += memsim.PageSize
			if c.opts.Incremental {
				shadow[p] = data
			}
		}
		if c.opts.Incremental {
			// A full snapshot is a fresh baseline: dirt recorded before
			// it is already inside the full pages.
			c.prov.DirtyPages(node)
		}
		return caps, captured
	}
	for _, p := range c.prov.DirtyPages(node) {
		if !c.prov.ReadPage(node, p, buf) {
			// The page's home migrated away since it was dirtied; its
			// new home captures it.
			delete(shadow, p)
			continue
		}
		clk.AdvanceCat(vclock.CatMemory, c.opts.PageCopyNs)
		sh, ok := shadow[p]
		if !ok {
			data := append([]byte(nil), buf...)
			caps = append(caps, PageCapture{Page: p, Full: data})
			captured += memsim.PageSize
			shadow[p] = data
			continue
		}
		clk.AdvanceCat(vclock.CatProtocol, c.opts.DiffScanNs)
		diff := swdsm.BuildDiff(buf, sh)
		if diff == nil {
			continue
		}
		caps = append(caps, PageCapture{Page: p, Diff: diff})
		captured += uint64(len(diff))
		shadow[p] = append([]byte(nil), buf...)
	}
	return caps, captured
}
