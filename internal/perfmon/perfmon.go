// Package perfmon is the performance-monitoring subsystem of §4.3 grown
// into a first-class service: a per-node, lock-free protocol event
// recorder with virtual timestamps, plus exporters (Chrome trace-event
// JSON for Perfetto, and per-node/per-category text summaries) and the
// virtual-time attribution surface built on vclock.Breakdown.
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled, in time and in memory. The hot path
//     is `if rec != nil && rec.Enabled() { ... }`: one nil check and one
//     atomic load, no allocations, no argument evaluation. Substrate
//     access paths stay allocation-free (benchmark-enforced). A recorder
//     that is never enabled holds only its per-node ring headers: the
//     event buffers are allocated by the first Enable.
//  2. Lock-free when enabled. Each node owns a fixed-capacity event
//     buffer; writers claim slots with one atomic add. The recorder
//     keeps the FIRST capacity events per node and counts the rest as
//     dropped — every slot is written exactly once, so concurrent
//     writers (a node's owner goroutine plus protocol handlers charging
//     stolen service work) never collide on a slot.
//  3. Attribution never perturbs the model. Event recording and
//     category tagging are observers; virtual times are bit-identical
//     with tracing on, off, or absent.
//
// Read APIs (Events, Snapshot) are for quiescent use: call them after
// the SPMD run has joined, exactly like platform.Substrate.NodeStats.
package perfmon

import (
	"slices"
	"sync"
	"sync/atomic"

	"hamster/internal/vclock"
)

// EventKind identifies one protocol event type.
type EventKind uint8

// The recorded protocol event kinds.
const (
	// EvPageFault is a remote page fetch into the local cache.
	// Arg1 = page id, Arg2 = home node.
	EvPageFault EventKind = iota
	// EvTwinCreate is the first write of an interval twinning a cached
	// page. Arg1 = page id.
	EvTwinCreate
	// EvDiffCreate is a twin/copy diff computed at release time.
	// Arg1 = page id, Arg2 = diff bytes.
	EvDiffCreate
	// EvDiffApply is a diff applied to the authoritative home copy.
	// Arg1 = page id, Arg2 = diff bytes.
	EvDiffApply
	// EvWriteNotice is a write-notice set published at a release point.
	// Arg1 = number of noticed pages, Arg2 = lock id (or ^0 for global).
	EvWriteNotice
	// EvInvalidate is a set of cached pages dropped at an acquire point.
	// Arg1 = number of pages invalidated.
	EvInvalidate
	// EvRemoteRead is a word-granular remote read run over the SAN.
	// Arg1 = page id, Arg2 = word count.
	EvRemoteRead
	// EvRemoteWrite is a word-granular remote write run over the SAN.
	// Arg1 = page id, Arg2 = word count.
	EvRemoteWrite
	// EvLockAcquire spans a lock acquisition including the wait.
	// Arg1 = lock id.
	EvLockAcquire
	// EvLockRelease is a lock release. Arg1 = lock id.
	EvLockRelease
	// EvBarrier spans a barrier crossing including the rendezvous wait.
	// Arg1 = the node's barrier epoch (pre-increment).
	EvBarrier
	// EvMsgSend is a queued-message transmission. Arg1 = peer,
	// Arg2 = payload bytes.
	EvMsgSend
	// EvMsgRecv is a queued-message reception. Arg1 = peer,
	// Arg2 = payload bytes.
	EvMsgRecv
	// EvService is protocol handler work absorbed by this node as
	// stolen cycles (active-message servicing). Arg1 = calling node,
	// Arg2 = message kind.
	EvService
	// EvHomeMigrate is a page home migrating to this node.
	// Arg1 = page id, Arg2 = old home.
	EvHomeMigrate
	// EvRetry is an active-message retransmission after an ack timeout.
	// Arg1 = target node, Arg2 = retry ordinal (1 = first retransmission).
	EvRetry
	// EvTimeout spans one abandoned wait for an active-message ack,
	// including the attempt's send-side work and backoff. Arg1 = target
	// node, Arg2 = attempt number.
	EvTimeout
	// EvNodeDown is the failure detector declaring a peer dead.
	// Arg1 = the down node, Arg2 = consecutive missed heartbeats.
	EvNodeDown
	// EvCkptBegin marks the start of a coordinated checkpoint capture on
	// this node. Arg1 = checkpoint sequence number, Arg2 = barrier epoch.
	EvCkptBegin
	// EvCkptEnd spans one node's checkpoint capture work (page copies,
	// diff scans, commit). Arg1 = checkpoint sequence number,
	// Arg2 = captured payload bytes.
	EvCkptEnd
	// EvRestore spans a node's state restoration from a checkpoint during
	// crash recovery. Arg1 = checkpoint sequence number, Arg2 = restored
	// page count.
	EvRestore
	// EvBatchFlush spans one aggregated diff-flush call delivering all of
	// a release point's diffs for one home in a single message.
	// Arg1 = home node, Arg2 = page diffs in the batch.
	EvBatchFlush
	// EvPrefetch spans one speculative multi-page fetch issued by the
	// sequential-stride tracker. Arg1 = first prefetched page,
	// Arg2 = pages in the run.
	EvPrefetch
	// EvPrefetchWaste is a misprediction: a prefetched page dropped
	// (evicted or invalidated) before any access used it. Arg1 = page.
	EvPrefetchWaste

	numEventKinds
)

// String names the event kind (also the Chrome trace event name).
func (k EventKind) String() string {
	switch k {
	case EvPageFault:
		return "page-fault"
	case EvTwinCreate:
		return "twin-create"
	case EvDiffCreate:
		return "diff-create"
	case EvDiffApply:
		return "diff-apply"
	case EvWriteNotice:
		return "write-notice"
	case EvInvalidate:
		return "invalidate"
	case EvRemoteRead:
		return "remote-read"
	case EvRemoteWrite:
		return "remote-write"
	case EvLockAcquire:
		return "lock-acquire"
	case EvLockRelease:
		return "lock-release"
	case EvBarrier:
		return "barrier"
	case EvMsgSend:
		return "msg-send"
	case EvMsgRecv:
		return "msg-recv"
	case EvService:
		return "service"
	case EvHomeMigrate:
		return "home-migrate"
	case EvRetry:
		return "retry"
	case EvTimeout:
		return "timeout"
	case EvNodeDown:
		return "node-down"
	case EvCkptBegin:
		return "ckpt-begin"
	case EvCkptEnd:
		return "ckpt-end"
	case EvRestore:
		return "restore"
	case EvBatchFlush:
		return "batch-flush"
	case EvPrefetch:
		return "prefetch"
	case EvPrefetchWaste:
		return "prefetch-waste"
	default:
		return "unknown"
	}
}

// Event is one recorded protocol event. At is the node's virtual time
// when the operation began; Dur is its span on that node's timeline
// (zero for instantaneous bookkeeping events). Arg1/Arg2 carry
// kind-specific detail (see the kind constants).
type Event struct {
	At   vclock.Time
	Dur  vclock.Duration
	Arg1 uint64
	Arg2 uint64
	Node int32
	Kind EventKind
}

// DefaultCapacity is the per-node event capacity used when a Recorder is
// built with capacity 0: generous enough for verification-sized runs
// (a 2-node SOR records a few thousand events). Each node's ring of
// DefaultCapacity events (~2.5 MiB) is allocated at the first Enable,
// never by New.
const DefaultCapacity = 1 << 16

// Recorder collects typed protocol events for a fixed set of nodes.
// Construct once per runtime, attach to the substrate/messaging layers,
// and toggle with Enable/Disable. The zero cost-when-disabled contract
// is the caller's half too: guard argument evaluation with Enabled().
type Recorder struct {
	on       atomic.Bool
	rings    []ring
	capacity int
	grow     sync.Mutex // serializes Enable's ring allocation
}

type ring struct {
	pos atomic.Uint64 // total events ever offered; slots [0,cap) hold the first cap
	buf []Event       // nil until the first Enable; never replaced after
	_   [32]byte      // keep neighboring rings off one cache line
}

// New builds a recorder for nodes nodes with the given per-node event
// capacity (0 = DefaultCapacity). The recorder starts disabled and
// allocates no event buffer until it is enabled.
func New(nodes, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{rings: make([]ring, nodes), capacity: capacity}
}

// Nodes returns the number of per-node event buffers.
func (r *Recorder) Nodes() int { return len(r.rings) }

// Enabled reports whether events are being recorded — the one atomic
// load on the hot path.
func (r *Recorder) Enabled() bool { return r.on.Load() }

// Enable starts recording. The first call allocates every node's ring;
// the store that turns recording on comes after, so a Record that sees
// the recorder on also sees its buffer. Later calls keep the rings and
// the events already in them.
func (r *Recorder) Enable() {
	r.grow.Lock()
	defer r.grow.Unlock()
	for i := range r.rings {
		if r.rings[i].buf == nil {
			r.rings[i].buf = make([]Event, r.capacity)
		}
	}
	r.on.Store(true)
}

// Disable stops recording. Already-recorded events remain readable.
func (r *Recorder) Disable() { r.on.Store(false) }

// Record appends one event to node's buffer. Lock-free and
// allocation-free; safe from any goroutine. Callers normally guard with
// Enabled() to skip argument evaluation, but Record re-checks so an
// unguarded call on a disabled recorder is a cheap no-op.
func (r *Recorder) Record(node int, kind EventKind, at vclock.Time, dur vclock.Duration, arg1, arg2 uint64) {
	if !r.on.Load() {
		return
	}
	rg := &r.rings[node]
	idx := rg.pos.Add(1) - 1
	if idx >= uint64(len(rg.buf)) {
		return // counted as dropped; first-N retention keeps slots write-once
	}
	rg.buf[idx] = Event{
		At:   at,
		Dur:  dur,
		Arg1: arg1,
		Arg2: arg2,
		Node: int32(node),
		Kind: kind,
	}
}

// Len reports how many events are retained for a node.
func (r *Recorder) Len(node int) int {
	n := r.rings[node].pos.Load()
	if n > uint64(len(r.rings[node].buf)) {
		return len(r.rings[node].buf)
	}
	return int(n)
}

// Dropped reports how many events exceeded a node's capacity.
func (r *Recorder) Dropped(node int) uint64 {
	n := r.rings[node].pos.Load()
	if c := uint64(len(r.rings[node].buf)); n > c {
		return n - c
	}
	return 0
}

// events returns a copy of one node's retained events in record order.
// Quiescent use only.
func (r *Recorder) events(node int) []Event {
	return slices.Clone(r.rings[node].buf[:r.Len(node)])
}

// AllEvents returns every node's retained events, ordered by node then
// record order. Quiescent use only.
func (r *Recorder) AllEvents() []Event {
	var out []Event
	for n := range r.rings {
		out = append(out, r.events(n)...)
	}
	return out
}

// KindCount tallies one node's retained events by kind.
func (r *Recorder) KindCount(node int) map[EventKind]uint64 {
	out := make(map[EventKind]uint64, int(numEventKinds))
	for _, ev := range r.events(node) {
		out[ev.Kind]++
	}
	return out
}

// Reset discards all recorded events (retention restarts from zero).
// Quiescent use only; the enabled/disabled state is unchanged.
func (r *Recorder) Reset() {
	for i := range r.rings {
		r.rings[i].pos.Store(0)
	}
}

// ResetNode discards one node's recorded events. Quiescent use only.
func (r *Recorder) ResetNode(node int) {
	r.rings[node].pos.Store(0)
}
