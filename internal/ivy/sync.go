package ivy

import (
	"fmt"

	"hamster/internal/amsg"
	"hamster/internal/hsync"
	"hamster/internal/memsim"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// Synchronization under IVY carries no consistency payload: memory is
// coherent at every instant (writes invalidate synchronously), so locks
// and barriers are pure ordering devices. They still pay the same
// modeled message costs as the scope engine's (request to the home,
// handler steal) so cross-engine comparisons isolate the protocols' data
// paths, not different sync models.

// lockState is one global lock, homed round-robin like the scope
// engine's (JiaJia's static lock distribution).
type lockState struct {
	id   int
	home int
	vl   *vclock.VLock
	// dl replaces the single-home path above hsync.Threshold nodes: the
	// token migrates to the acquirer along probable-holder hint chains,
	// exactly like this engine's probable-owner page forwarding. nil
	// below the threshold.
	dl *hsync.DLock
}

// lockMsgBytes is the wire size of a lock request/grant.
const lockMsgBytes = 16

// NewLock implements platform.Substrate.
func (d *DSM) NewLock() int {
	d.lockMu.Lock()
	defer d.lockMu.Unlock()
	id := len(d.locks)
	st := &lockState{
		id:   id,
		home: id % len(d.nodes),
		vl:   vclock.NewVLock(),
	}
	if d.hier {
		st.dl = hsync.NewDLock(st.vl, len(d.nodes), st.home)
	}
	d.locks = append(d.locks, st)
	return id
}

// msgCost prices one protocol message between two specific nodes under
// the adopted topology (flat reduces to the uniform Ethernet.MsgCost).
func (d *DSM) msgCost(from, to, bytes int) vclock.Duration {
	return d.topo.MsgCost(d.params.Ethernet, from, to, bytes)
}

func (d *DSM) stealAt(node int, dur vclock.Duration) { d.clocks[node].Steal(dur) }

func (d *DSM) lock(id int) *lockState {
	d.lockMu.Lock()
	defer d.lockMu.Unlock()
	if id < 0 || id >= len(d.locks) {
		panic(fmt.Sprintf("ivy: unknown lock %d", id))
	}
	return d.locks[id]
}

// lockCost returns the modeled cost of one lock message from nodeID to
// the lock's home, charging the home's handler steal as a side effect.
func (d *DSM) lockCost(n *node, home int) vclock.Duration {
	if home == n.id {
		return amsg.LocalCallNs
	}
	d.clocks[home].Steal(d.params.Ethernet.HandlerNs)
	n.stats.ProtocolMsgs++
	return d.msgCost(n.id, home, lockMsgBytes)
}

// dlockRequest routes a distributed-lock request along the probable-
// holder chain (see hsync.DLock) and charges the token grant from the
// predecessor. Returns the cost to pass to VLock.Acquire as reqCost and
// the grant cost the acquirer pays after the request lands.
func (d *DSM) dlockRequest(n *node, st *lockState) (reqCost, grantCost vclock.Duration) {
	prev, fwd, hops := st.dl.Request(n.id, lockMsgBytes, d.msgCost, d.stealAt, d.params.Ethernet.HandlerNs)
	if prev == n.id {
		return amsg.LocalCallNs, 0
	}
	grantCost = d.msgCost(prev, n.id, lockMsgBytes)
	d.stealAt(prev, d.params.Ethernet.HandlerNs)
	n.stats.ProtocolMsgs += uint64(hops) + 1
	return fwd, grantCost
}

// Acquire implements platform.Substrate. No invalidations: IVY copies
// are never stale.
func (d *DSM) Acquire(nodeID, lock int) {
	n := d.access(nodeID)
	st := d.lock(lock)
	clk := d.clocks[nodeID]
	t0 := clk.Now()
	if st.dl != nil {
		reqCost, grantCost := d.dlockRequest(n, st)
		st.vl.Acquire(clk, reqCost, grantCost)
	} else {
		st.vl.Acquire(clk, d.lockCost(n, st.home), 0)
	}
	n.stats.LockAcquires++
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(nodeID, perfmon.EvLockAcquire, t0, vclock.Since(t0, clk.Now()), uint64(lock), 0)
	}
}

// TryAcquire implements platform.Substrate.
func (d *DSM) TryAcquire(nodeID, lock int) bool {
	n := d.access(nodeID)
	st := d.lock(lock)
	clk := d.clocks[nodeID]
	t0 := clk.Now()
	if st.dl != nil {
		// Probe prices the chain without claiming the token; a failed try
		// must leave the probable-holder state untouched.
		prev, fwd := st.dl.Probe(nodeID, lockMsgBytes, d.msgCost)
		reqCost, grantCost := vclock.Duration(amsg.LocalCallNs), vclock.Duration(0)
		if prev != nodeID {
			reqCost = fwd
			grantCost = d.msgCost(prev, nodeID, lockMsgBytes)
		}
		if !st.vl.TryAcquire(clk, reqCost, grantCost) {
			return false
		}
		st.dl.Commit(nodeID)
		if prev != nodeID {
			d.stealAt(prev, d.params.Ethernet.HandlerNs)
			n.stats.ProtocolMsgs += 2
		}
	} else if !st.vl.TryAcquire(clk, d.lockCost(n, st.home), 0) {
		return false
	}
	n.stats.LockAcquires++
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(nodeID, perfmon.EvLockAcquire, t0, vclock.Since(t0, clk.Now()), uint64(lock), 0)
	}
	return true
}

// Release implements platform.Substrate. Nothing to flush: every write
// already performed globally.
func (d *DSM) Release(nodeID, lock int) {
	n := d.access(nodeID)
	st := d.lock(lock)
	clk := d.clocks[nodeID]
	t0 := clk.Now()
	if st.dl != nil {
		// The token stays with the releaser; the next acquirer's grant
		// pays the handoff.
		st.vl.Release(clk, amsg.LocalCallNs)
	} else {
		st.vl.Release(clk, d.lockCost(n, st.home))
	}
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(nodeID, perfmon.EvLockRelease, t0, vclock.Since(t0, clk.Now()), uint64(lock), 0)
	}
}

// Barrier implements platform.Substrate: a pure rendezvous at manager
// node 0 (no notice exchange).
func (d *DSM) Barrier(nodeID int) {
	n := d.access(nodeID)
	clk := d.clocks[nodeID]
	const manager = 0
	t0 := clk.Now()
	var arriveCost, releaseCost vclock.Duration
	switch {
	case nodeID == manager:
		arriveCost = amsg.LocalCallNs
	case d.hier:
		// Tree barrier: the arrival climbs the reduction tree (full-path
		// latency on the arriver's timeline, one interrupt at its direct
		// parent) and the release wave comes back down the same path.
		arriveCost = d.tree.PathCost(nodeID, lockMsgBytes, d.msgCost)
		releaseCost = arriveCost
		d.stealAt(d.tree.Parent(nodeID), d.params.Ethernet.HandlerNs)
		n.stats.ProtocolMsgs += 2
	default:
		arriveCost = d.msgCost(nodeID, manager, lockMsgBytes)
		d.clocks[manager].Steal(d.params.Ethernet.HandlerNs)
		n.stats.ProtocolMsgs++
	}
	d.barrier.Arrive(clk, arriveCost, releaseCost)
	n.stats.BarrierCrossings++
	if rec := d.rec; rec != nil && rec.Enabled() {
		rec.Record(nodeID, perfmon.EvBarrier, t0, vclock.Since(t0, clk.Now()), 0, 0)
	}
}

// Fence implements platform.Substrate: a no-op — IVY is sequentially
// consistent without it.
func (d *DSM) Fence(nodeID int) {
	d.access(nodeID) // validate the node id; nothing to do
}

// AbortSync poisons the barrier and every lock so no goroutine stays
// blocked waiting for a failed peer (see swdsm.AbortSync).
func (d *DSM) AbortSync(reason string) {
	d.barrier.Abort(reason)
	d.lockMu.Lock()
	locks := append([]*lockState(nil), d.locks...)
	d.lockMu.Unlock()
	for _, st := range locks {
		st.vl.Abort(reason)
	}
}

// FlushInterval implements consengine.Composable: IVY writes are
// globally visible when they perform, so an interval has no notices.
func (d *DSM) FlushInterval(nodeID int) []memsim.PageID {
	d.access(nodeID)
	return nil
}

// InvalidatePages implements consengine.Composable: foreign notices drop
// local read copies. IVY copies are never stale, so this is purely a
// courtesy to the composition layer (the copy is refetched on next use);
// owned pages are authoritative and kept.
func (d *DSM) InvalidatePages(nodeID int, pages []memsim.PageID) {
	n := d.access(nodeID)
	n.mu.Lock()
	for _, p := range pages {
		if e := n.pages[p]; e != nil && e.state == pRead {
			n.dropReadCopy(e)
			e.gen++
		}
	}
	n.mu.Unlock()
}
