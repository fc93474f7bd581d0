// Package vclock implements the virtual-time engine that underlies every
// simulated platform in this repository.
//
// The reproduction runs a whole "cluster" inside one process: each simulated
// node is a goroutine, and instead of measuring wall-clock time each node
// carries a Clock that is advanced explicitly by modeled costs (CPU work,
// memory accesses, network latencies). Synchronization constructs reconcile
// clocks so that causality is preserved conservatively: a clock only ever
// moves forward, and an event that depends on another event can never be
// stamped before it.
//
// Two kinds of charges exist:
//
//   - Owner charges (Advance, AdvanceCat): applied by the node's own
//     goroutine as it executes simulated work.
//   - Stolen charges (Steal): applied asynchronously by protocol handlers
//     that run on behalf of the node (for example, a DSM home node servicing
//     a page fault for a remote node is interrupted; the handler cost is
//     charged to the home node without blocking its goroutine).
//
// Stolen charges model the SIGIO-style interrupt handling of classic
// software DSM systems such as JiaJia: the serving node keeps computing, but
// its total virtual time grows by the handler cost. Each carries the virtual
// time its message reached the node, and a barrier decides from that time
// alone whether the charge delayed the node's arrival or fell into its wait
// (see VBarrier), so barrier-structured runs do not depend on which side of
// an arrival a handler happened to run on the host.
package vclock

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time uint64

// Duration is a span of virtual time in nanoseconds.
type Duration uint64

// Category classifies where a clock charge came from, for the
// performance-monitoring service (§4.3, internal/perfmon). The category
// only picks the bucket a charge is added to: it never changes the
// amount, so virtual times are bit-identical however charges are tagged
// and whether or not anyone ever reads a breakdown.
//
// The attribution convention used throughout the substrates:
//
//   - Compute: modeled CPU work (flops), middleware dispatch, and any
//     untagged legacy charge.
//   - Memory: local memory-system costs — per-word access charges, CPU
//     cache-miss DRAM penalties, and page/twin copies performed by the
//     local CPU.
//   - Protocol: consistency and synchronization work — lock/barrier
//     costs and waits, diff scans, write-notice bookkeeping, and the
//     service time of protocol handlers absorbed into a caller's
//     timeline.
//   - Network: wire costs — send/receive software, latency, payload
//     serialization, SAN remote accesses, page fetch transfers, and
//     waits for message arrival. Piggybacked payloads (data riding a
//     message the protocol sends anyway, e.g. write notices on a lock
//     grant under aggregation) charge only their serialization bytes
//     here — the carrying message's software overhead is charged once,
//     by whoever accounts the message itself.
//   - Stolen: asynchronous handler cycles charged by other nodes
//     (Clock.Steal); always its own bucket.
type Category uint8

// The attribution categories. CatStolen is not a local category: stolen
// charges arrive via Steal and are accounted separately.
const (
	CatCompute Category = iota
	CatMemory
	CatProtocol
	CatNetwork
	localCategories // number of owner-charge buckets
	CatStolen       = localCategories
	// NumCategories counts all categories including CatStolen.
	NumCategories = int(localCategories) + 1
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatMemory:
		return "memory"
	case CatProtocol:
		return "protocol"
	case CatNetwork:
		return "network"
	case CatStolen:
		return "stolen"
	default:
		return "unknown"
	}
}

// Breakdown is a per-category snapshot of one clock's accumulated time.
// At quiescence Total() equals the clock's Now() exactly — the invariant
// internal/perfmon's attribution test enforces on every substrate.
type Breakdown struct {
	Compute  Duration
	Memory   Duration
	Protocol Duration
	Network  Duration
	Stolen   Duration
}

// Total sums all categories.
func (b Breakdown) Total() Duration {
	return b.Compute + b.Memory + b.Protocol + b.Network + b.Stolen
}

// Get returns one category's value.
func (b Breakdown) Get(c Category) Duration {
	switch c {
	case CatCompute:
		return b.Compute
	case CatMemory:
		return b.Memory
	case CatProtocol:
		return b.Protocol
	case CatNetwork:
		return b.Network
	case CatStolen:
		return b.Stolen
	default:
		return 0
	}
}

// Add returns the field-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Compute:  b.Compute + o.Compute,
		Memory:   b.Memory + o.Memory,
		Protocol: b.Protocol + o.Protocol,
		Network:  b.Network + o.Network,
		Stolen:   b.Stolen + o.Stolen,
	}
}

// String formats a virtual time using the most natural unit.
func (t Time) String() string { return Duration(t).String() }

// String formats a duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= 1e9:
		return fmt.Sprintf("%.3fs", float64(d)/1e9)
	case d >= 1e6:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", uint64(d))
	}
}

// Clock is a per-node virtual clock.
//
// All methods are safe for concurrent use. Several tasks time-sharing one
// node (thread programming models forward calls between nodes) may charge
// the same clock: their Advance calls accumulate, which is exactly the
// behavior of work serializing on one CPU.
//
// A clock fills whole 128-byte lines (two 64-byte lines, which the
// adjacent-line prefetcher moves together): a cluster's clocks are
// allocated back to back and every simulated word writes its node's, so
// two nodes' clocks in one line would bounce it between their cores.
type Clock struct {
	// cats holds the owner charges, one bucket per attribution category.
	// The buckets ARE the clock: Now() is their sum plus stolen, so a
	// charge is one atomic add and the attribution sums to the clock by
	// construction.
	cats   [localCategories]atomic.Uint64
	stolen atomic.Uint64 // asynchronous protocol-handler charges, all of them
	// base is stolen as of the node's last barrier. OwnNow adds it to the
	// owner charges, so a clock read for a steal's timestamp never depends
	// on which of the current phase's charges have landed yet.
	base   atomic.Uint64
	ledger ledger
	poison *poison // shared by the cluster's clocks (NewClocks); nil on a zero Clock

	_ [128 - (2+int(localCategories))*8 - int(unsafe.Sizeof(ledger{})) - int(unsafe.Sizeof((*poison)(nil)))]byte
}

// ledger sorts the stolen charges of the current barrier phase into those
// that delay the node's next barrier arrival and those its wait absorbs.
type ledger struct {
	mu sync.Mutex
	// counted sums the charges already known to delay the arrival: their
	// message reached the node before the node's own clock got there.
	counted uint64
	// pending holds the others until the barrier, which knows where the
	// node's arrival lies.
	pending []steal
	// limit is the length at which pending is next compacted.
	limit int
}

// steal is one stolen charge: d nanoseconds for a message that reached
// the node at virtual time at.
type steal struct {
	at Time
	d  Duration
}

// compactAt is the length at which a ledger first compacts its pending
// charges; after that it compacts whenever they have doubled since.
const compactAt = 1 << 12

// local sums the owner-charge buckets. Each only grows, so a sum read
// while other goroutines charge lies between the clock's value when the
// read began and its value when it ended.
func (c *Clock) local() uint64 {
	var sum uint64
	for i := range c.cats {
		sum += c.cats[i].Load()
	}
	return sum
}

// Now returns the node's current virtual time, including stolen cycles.
func (c *Clock) Now() Time {
	return Time(c.local() + c.stolen.Load())
}

// Advance moves the clock forward by d, attributed to CatCompute (the
// default for modeled CPU work and untagged charges).
func (c *Clock) Advance(d Duration) {
	c.AdvanceCat(CatCompute, d)
}

// AdvanceCat moves the clock forward by d, attributing the charge to the
// given category. cat must be a local category (not CatStolen — stolen
// charges arrive via Steal).
func (c *Clock) AdvanceCat(cat Category, d Duration) {
	c.cats[cat].Add(uint64(d))
}

// AdvanceToCat moves the clock forward so that Now() >= t, attributing
// the applied delta (if any) to the given category. The jump is a
// compare-and-swap on that category's bucket alone: a charge that lands
// in another bucket meanwhile is kept on top of the jump, as if the jump
// had happened first.
func (c *Clock) AdvanceToCat(cat Category, t Time) {
	for {
		st := c.stolen.Load()
		if uint64(t) <= st {
			return
		}
		want := uint64(t) - st
		own := c.cats[cat].Load()
		cur := c.local()
		if want <= cur {
			return
		}
		if c.cats[cat].CompareAndSwap(own, own+want-cur) {
			return
		}
	}
}

// OwnNow returns Now without the stolen charges that landed since the
// node's last barrier: a function of the node's own charges, whatever
// other nodes' handlers have done meanwhile. It timestamps the messages
// the node sends, for Steal.
func (c *Clock) OwnNow() Time {
	return Time(c.local() + c.base.Load())
}

// Steal charges d nanoseconds of asynchronous handler work to the node,
// for a message that reached it at virtual time at (the sender's OwnNow
// plus the wire). Safe to call from any goroutine. Stolen time is its own
// attribution category (CatStolen) and Now includes it at once. Whether
// it also delays the node's next barrier arrival is decided from at: a
// message that reached the node before the node reached the barrier
// interrupted its work; one that reached it later fell into its wait.
func (c *Clock) Steal(at Time, d Duration) {
	c.stolen.Add(uint64(d))
	l := &c.ledger
	l.mu.Lock()
	// The node's own clock only grows until the barrier, so a message
	// that is already behind it is behind the arrival too.
	if uint64(at) < c.local()+c.base.Load()+l.counted {
		l.counted += uint64(d)
	} else if l.pending = append(l.pending, steal{at, d}); len(l.pending) >= max(l.limit, compactAt) {
		c.compact()
	}
	l.mu.Unlock()
}

// compact counts, in message-time order, the pending charges whose
// message reached the node before its own clock (plus what is already
// counted) did, exactly as the barrier's fold will, and drops them from
// the ledger. The rest stay, however many: they are the messages that
// found the node behind them, a blocked node collects one per request
// it serves, and counting any of them early would make the arrival
// depend on the order they landed in. Compacting again only once they
// have doubled keeps the sorting to O(log n) a charge. Caller holds the
// ledger's mutex.
func (c *Clock) compact() {
	l := &c.ledger
	slices.SortFunc(l.pending, func(x, y steal) int { return cmp.Compare(x.at, y.at) })
	a := c.local() + c.base.Load() + l.counted
	i := 0
	for ; i < len(l.pending) && uint64(l.pending[i].at) < a; i++ {
		a += uint64(l.pending[i].d)
		l.counted += uint64(l.pending[i].d)
	}
	l.pending = append(l.pending[:0], l.pending[i:]...)
	l.limit = 2 * len(l.pending)
}

// arrival returns the node's barrier arrival time: its own clock plus
// every stolen charge whose message reached it before it got there, in
// order of those messages' times. Call it at a quiescent rendezvous, when
// every charge of the phase has landed; then the result depends on the
// charges' times and amounts only, never on the order they landed in.
func (c *Clock) arrival() Time {
	l := &c.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	a := c.local() + c.base.Load() + l.counted
	slices.SortFunc(l.pending, func(x, y steal) int { return cmp.Compare(x.at, y.at) })
	for _, s := range l.pending {
		if uint64(s.at) >= a {
			break // this message and every later one found the node waiting
		}
		a += uint64(s.d)
	}
	return Time(a)
}

// settle closes the node's barrier phase: every stolen charge so far
// becomes part of OwnNow. Quiescent use only, after the reconciliation.
func (c *Clock) settle() {
	l := &c.ledger
	l.mu.Lock()
	c.base.Store(c.stolen.Load())
	l.counted = 0
	l.pending = l.pending[:0]
	l.limit = 0
	l.mu.Unlock()
}

// Breakdown snapshots the per-category attribution. Read it at
// quiescence (after an SPMD join): then Breakdown().Total() == Now()
// exactly. Mid-run snapshots are monotone per bucket but may be torn
// across buckets.
func (c *Clock) Breakdown() Breakdown {
	return Breakdown{
		Compute:  Duration(c.cats[CatCompute].Load()),
		Memory:   Duration(c.cats[CatMemory].Load()),
		Protocol: Duration(c.cats[CatProtocol].Load()),
		Network:  Duration(c.cats[CatNetwork].Load()),
		Stolen:   Duration(c.stolen.Load()),
	}
}

// Restore sets the clock to exactly the state described by a breakdown —
// the checkpoint/restart path rewinding a node to a captured instant.
// Must not race with other use. After Restore, Now() == b.Total() and
// Breakdown() == b exactly, so a resumed run accumulates charges on top
// of the captured attribution as if the crash never happened.
func (c *Clock) Restore(b Breakdown) {
	c.cats[CatCompute].Store(uint64(b.Compute))
	c.cats[CatMemory].Store(uint64(b.Memory))
	c.cats[CatProtocol].Store(uint64(b.Protocol))
	c.cats[CatNetwork].Store(uint64(b.Network))
	c.stolen.Store(uint64(b.Stolen))
	c.settle()
}

// MaxAll returns the maximum Now() across the given clocks, or zero when
// the slice is empty.
func MaxAll(clocks []*Clock) Time {
	var m Time
	for _, c := range clocks {
		if t := c.Now(); t > m {
			m = t
		}
	}
	return m
}

// Since returns t2-t1, clamped at zero (virtual clocks reconcile with max,
// so an "earlier" stamp observed later is not an error).
func Since(t1, t2 Time) Duration {
	if t2 <= t1 {
		return 0
	}
	return Duration(t2 - t1)
}
