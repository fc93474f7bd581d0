// Package amsg provides the active-message layer of the HAMSTER framework.
//
// All internal communication in the framework — page fetches, diff
// propagation, lock handoffs, barrier coordination, thread-call forwarding —
// "uses some form of active message present within the HAMSTER modules"
// (§5.2). This package implements that shared layer on top of the simulated
// interconnect. It is the *coalesced* messaging layer of §3.3: one instance
// serves the DSM internals, the programming models, and user-level
// messaging, so the two base systems never compete for the (simulated) NIC.
//
// The central primitive is Call: a synchronous request/response exchange in
// which the caller's goroutine executes the registered handler against the
// target node's state. The target node is charged the handler cost as
// stolen cycles (modeling SIGIO-style interrupt processing), while the
// caller's clock absorbs the full round-trip. Handlers must protect the
// state they touch with that node's own locks.
package amsg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hamster/internal/machine"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Kind re-exports simnet.Kind for convenience.
type Kind = simnet.Kind

// NodeID re-exports simnet.NodeID.
type NodeID = simnet.NodeID

// Handler services one active-message kind on behalf of a target node.
// It receives the caller, the request payload, and returns the response
// payload plus any additional service cost beyond the link's base handler
// cost (for example the memory-copy cost of extracting a page).
type Handler func(from NodeID, req []byte) (resp []byte, extra vclock.Duration)

// Layer is one coalesced active-message layer over a network.
type Layer struct {
	net  *simnet.Network
	link machine.Link

	// handlers is a copy-on-write registry: Register publishes a cloned
	// map through the atomic pointer, so the per-call lookup is lock-free.
	// Registration happens at startup (and is cheap enough to clone), the
	// lookup happens on every protocol message.
	handlers atomic.Pointer[map[Kind][]Handler]
	regMu    sync.Mutex // serializes Register's clone-and-swap

	stats []CallStats

	// Reliability state (see retry.go): the retry policy, per-caller
	// idempotency-key counters, per-target duplicate-suppression tables,
	// and the set of peers declared down by the health monitor.
	policy  retryPolicy
	callSeq []atomic.Uint64
	svc     []svcTable
	down    []atomic.Bool
	anyDown atomic.Bool

	rec *perfmon.Recorder // protocol event recorder; nil until attached
}

// CallStats counts active-message activity per node. The counters are
// independent atomics — a call bumps the caller's and target's counters
// without any cross-node serialization (the old per-struct mutex put two
// lock acquisitions on every protocol message).
type CallStats struct {
	calls      atomic.Uint64 // calls issued by this node
	serviced   atomic.Uint64 // handler executions on behalf of this node
	reqBytes   atomic.Uint64
	rspBytes   atomic.Uint64
	retries    atomic.Uint64 // retransmissions issued by this node
	suppressed atomic.Uint64 // duplicate requests this node absorbed without re-executing
}

// Snapshot returns a copy of the counters.
func (s *CallStats) Snapshot() (calls, serviced, reqBytes, rspBytes uint64) {
	return s.calls.Load(), s.serviced.Load(), s.reqBytes.Load(), s.rspBytes.Load()
}

// Faults returns the reliability counters: retransmissions issued by
// this node and duplicate requests it suppressed.
func (s *CallStats) Faults() (retries, suppressed uint64) {
	return s.retries.Load(), s.suppressed.Load()
}

// New creates an active-message layer over net using the given link costs
// (normally the same profile the network itself was built with).
func New(net *simnet.Network, link machine.Link) *Layer {
	l := &Layer{
		net:     net,
		link:    link,
		stats:   make([]CallStats, net.Size()),
		callSeq: make([]atomic.Uint64, net.Size()),
		svc:     make([]svcTable, net.Size()),
		down:    make([]atomic.Bool, net.Size()),
	}
	l.policy = l.fitPolicy(retryPolicy{})
	empty := make(map[Kind][]Handler)
	l.handlers.Store(&empty)
	return l
}

// Network returns the underlying simulated network.
func (l *Layer) Network() *simnet.Network { return l.net }

// SetRecorder attaches a protocol event recorder to the layer and to the
// network underneath it (nil detaches both). The layer records EvService
// for every handler execution stolen from a target node.
func (l *Layer) SetRecorder(rec *perfmon.Recorder) {
	l.rec = rec
	l.net.SetRecorder(rec)
}

// Register installs a handler for kind on the given target node.
// Registration happens at startup, before traffic; re-registration
// replaces the previous handler.
func (l *Layer) Register(target NodeID, kind Kind, h Handler) {
	l.regMu.Lock()
	defer l.regMu.Unlock()
	old := *l.handlers.Load()
	next := make(map[Kind][]Handler, len(old)+1)
	for k, hs := range old {
		next[k] = hs
	}
	hs := make([]Handler, l.net.Size())
	copy(hs, next[kind])
	hs[target] = h
	next[kind] = hs
	l.handlers.Store(&next)
}

// LocalCallNs is the cost of a call that stays on the caller's node
// (loopback dispatch, no NIC involvement).
const LocalCallNs vclock.Duration = 500

// handlerFor resolves the handler for kind on node to, panicking on an
// unregistered kind (a programming error, not a runtime fault).
func (l *Layer) handlerFor(to NodeID, kind Kind) Handler {
	hs := (*l.handlers.Load())[kind]
	if hs == nil || hs[to] == nil {
		panic(fmt.Sprintf("amsg: no handler for kind %d on node %d", kind, to))
	}
	return hs[to]
}

// Call performs a synchronous request/response against the target node.
// The caller's clock is charged the full round trip; the target's clock is
// charged the handler cost as stolen cycles. Calls to the caller's own
// node cost LocalCallNs plus the handler's extra cost and steal nothing.
// Under an active fault plan the call runs the request/ack protocol of
// retry.go; an unreachable target or a closed network panics with the
// diagnostic — callers that can degrade gracefully use CallErr instead.
func (l *Layer) Call(from, to NodeID, kind Kind, req []byte) []byte {
	resp, err := l.CallErr(from, to, kind, req)
	if err != nil {
		panic(fmt.Sprintf("amsg: kind-%d call from node %d: %v", kind, from, err))
	}
	return resp
}

// CallErr is Call with graceful failure: instead of panicking it returns
// errClosed when the network is torn down mid-call and *UnreachableError
// when the target's retry budget is exhausted or it was marked down. The
// handler is guaranteed to have executed exactly once when err is nil and
// at most once otherwise.
func (l *Layer) CallErr(from, to NodeID, kind Kind, req []byte) ([]byte, error) {
	h := l.handlerFor(to, kind)
	caller := l.net.Clock(from)

	if from == to {
		resp, extra := h(from, req)
		caller.AdvanceCat(vclock.CatProtocol, LocalCallNs+extra)
		l.count(from, to, len(req), len(resp))
		return resp, nil
	}
	if l.nodeDown(to) {
		return nil, &UnreachableError{Node: to, Kind: kind}
	}
	if l.net.CallFaultsActive() {
		return l.callReliable(from, to, kind, h, req)
	}

	// Fault-free fast path: one indivisible round trip.
	// Request travel: sender software + wire (topology-dependent: extra
	// hop latency and oversubscribed uplink bytes when the pair spans
	// racks; WireNs is the legacy expression on the flat fabric).
	caller.AdvanceCat(vclock.CatNetwork, l.link.SendSWNs+
		l.net.WireNs(from, to, len(req)))

	// Handler executes "at" the target: the target absorbs the interrupt
	// cost, the caller's timeline includes the service time.
	resp, extra := h(from, req)
	service := l.link.HandlerNs + extra
	target := l.net.Clock(to)
	target.Steal(caller.OwnNow(), service)
	caller.AdvanceCat(vclock.CatProtocol, service)
	if rec := l.rec; rec != nil && rec.Enabled() {
		rec.Record(int(to), perfmon.EvService, target.Now(), service, uint64(from), uint64(kind))
	}

	// Response travel back.
	caller.AdvanceCat(vclock.CatNetwork, l.net.WireNs(to, from, len(resp))+
		l.link.RecvSWNs)

	l.count(from, to, len(req), len(resp))
	return resp, nil
}

func (l *Layer) count(from, to NodeID, req, rsp int) {
	s := &l.stats[from]
	s.calls.Add(1)
	s.reqBytes.Add(uint64(req))
	s.rspBytes.Add(uint64(rsp))
	if from != to {
		l.stats[to].serviced.Add(1)
	}
}

// Stats returns the per-node counters for node id.
func (l *Layer) Stats(id NodeID) *CallStats { return &l.stats[id] }
