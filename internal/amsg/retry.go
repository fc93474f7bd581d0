package amsg

// Reliability protocol for active messages over a faulty interconnect.
//
// The fault-free layer can treat a Call as one indivisible round trip
// because the simulated wire never loses anything. Under a
// simnet.FaultPlan with drops, partitions, or node schedules, every
// transmission can vanish, so Call/Notify switch to a request/ack
// protocol:
//
//	SEND:    charge send software + request serialization, draw the
//	         request's fate from the link's seeded stream.
//	EXECUTE: if the request arrives, the target runs the handler exactly
//	         once per idempotency key — a retransmitted request only
//	         replays the stored response (duplicate suppression), charging
//	         the target a bare interrupt.
//	ACK:     the response (or, for one-way messages, a NIC-level ack)
//	         rides back and can be lost too.
//	TIMEOUT: a lost request or ack costs the caller the current
//	         retransmission timeout plus seeded jitter in virtual time,
//	         then the attempt repeats with the timeout doubled (bounded
//	         exponential backoff) until MaxAttempts is exhausted.
//
// Because timeouts are virtual-time charges and every loss/duplicate
// decision comes from the per-link deterministic streams (see
// simnet/faults.go), a seeded fault campaign replays bit-identically.
// On a clean first attempt the caller and target are charged exactly
// what the fault-free path charges, so a plan that never fires is
// cost-invisible.

import (
	"errors"
	"fmt"
	"sync"

	"hamster/internal/machine"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// ErrClosed reports that the network was torn down while a call was in
// flight. Closing the network wakes callers blocked in retry loops; they
// must not be left waiting for an ack that can never come.
var ErrClosed = errors.New("amsg: network closed")

// UnreachableError reports a call abandoned because the target could not
// be reached — either its retry budget ran out or the cluster health
// monitor had already marked the node down.
type UnreachableError struct {
	Node     NodeID
	Kind     Kind
	Attempts int // transmission attempts made; 0 when the node was pre-marked down
	// Executed reports whether the handler ran despite the failure (a
	// request got through but every ack was lost). Callers whose handlers
	// have side effects must treat Executed == true as an ambiguous
	// outcome, not a clean no-op.
	Executed bool
}

// Error formats the diagnostic.
func (e *UnreachableError) Error() string {
	if e.Attempts == 0 {
		return fmt.Sprintf("node %d is marked down (kind-%d request not sent)", e.Node, e.Kind)
	}
	return fmt.Sprintf("node %d unreachable: kind-%d call abandoned after %d attempts", e.Node, e.Kind, e.Attempts)
}

// DefaultMaxAttempts bounds transmissions per logical call when the
// policy does not say otherwise.
const DefaultMaxAttempts = 8

// RetryPolicy tunes the reliability protocol. The zero value of any
// field selects a default derived from the link profile.
type RetryPolicy struct {
	// MaxAttempts bounds transmissions per logical call (first try plus
	// retries); exhausting it yields UnreachableError.
	MaxAttempts int
	// Timeout is the virtual-time ack deadline of the first attempt. It
	// doubles after every loss, up to MaxBackoff.
	Timeout vclock.Duration
	// MaxBackoff caps the per-attempt timeout.
	MaxBackoff vclock.Duration
}

// withDefaults fills zero fields from the link profile: the base timeout
// is twice a maximal clean round trip, the backoff cap 64× that.
func (p RetryPolicy) withDefaults(link machine.Link) RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.Timeout == 0 {
		p.Timeout = 2 * (2*link.LatencyNs + link.SendSWNs + link.RecvSWNs + link.HandlerNs)
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = p.Timeout << 6
	}
	return p
}

// SetRetryPolicy replaces the layer's retry policy; zero fields keep
// their link-derived defaults. Call it at startup, before traffic.
func (l *Layer) SetRetryPolicy(p RetryPolicy) {
	l.policy = l.fitPolicy(p)
}

// fitPolicy fills defaults and, when the Timeout itself was defaulted,
// widens it by the topology's worst-case round-trip of extra hop latency
// so cross-pod calls do not look like losses to the retransmission timer.
// An explicitly configured Timeout is honored verbatim.
func (l *Layer) fitPolicy(p RetryPolicy) RetryPolicy {
	widen := p.Timeout == 0
	p = p.withDefaults(l.link)
	if widen {
		p.Timeout += 2 * l.net.Topology().MaxExtraLatencyNs()
	}
	return p
}

// callKey is the idempotency key of one logical call: the caller plus a
// per-caller sequence number, assigned once per Call/Notify and reused
// across its retransmissions.
type callKey struct {
	from NodeID
	seq  uint64
}

// svcTable is one target node's duplicate-suppression state: responses
// of calls still in flight, keyed by idempotency key. Entries are
// dropped when the logical call completes, so the table stays bounded by
// the number of concurrent callers.
type svcTable struct {
	mu   sync.Mutex
	done map[callKey][]byte
}

func (t *svcTable) lookup(k callKey) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.done[k]
	return r, ok
}

func (t *svcTable) store(k callKey, resp []byte) {
	t.mu.Lock()
	if t.done == nil {
		t.done = make(map[callKey][]byte)
	}
	t.done[k] = resp
	t.mu.Unlock()
}

func (t *svcTable) forget(k callKey) {
	t.mu.Lock()
	delete(t.done, k)
	t.mu.Unlock()
}

// MarkDown records that a peer has been declared failed (the cluster
// health monitor's notice path): subsequent calls to it fail immediately
// with UnreachableError instead of burning a full retry cycle first.
// Fail-stop is permanent for a run — there is no way back up.
func (l *Layer) MarkDown(node NodeID) {
	l.down[node].Store(true)
	l.anyDown.Store(true)
	// A fail-stopped peer must also stop bounding the conservative
	// delivery horizon (no-op when the network is ungated): the fault
	// plan eats its outbound traffic, so its frozen clock says nothing
	// about what survivors can still receive.
	l.net.MarkNodeDown(node)
}

// NodeDown reports whether MarkDown has been called for a node.
func (l *Layer) NodeDown(node NodeID) bool {
	return l.anyDown.Load() && l.down[node].Load()
}

// callReliable runs the request/ack protocol for one remote call. h is
// the already-resolved handler; oneway selects Notify semantics (no
// response payload, NIC-level ack, no receive-side software on the clean
// path).
func (l *Layer) callReliable(from, to NodeID, kind Kind, h Handler, req []byte, oneway bool) ([]byte, error) {
	caller := l.net.Clock(from)
	target := l.net.Clock(to)
	pol := l.policy
	key := callKey{from: from, seq: l.callSeq[from].Add(1)}
	tbl := &l.svc[to]
	defer tbl.forget(key)

	rto := pol.Timeout
	for attempt := 1; ; attempt++ {
		if l.net.Closed() {
			return nil, ErrClosed
		}
		start := caller.Now()
		// Send software and request serialization are spent whether or
		// not the wire delivers the packet.
		caller.AdvanceCat(vclock.CatNetwork,
			l.net.ScaledSW(from, l.link.SendSWNs)+l.net.PayloadNs(from, to, len(req)))
		sendT := caller.Now()

		lost := l.net.LinkLost(from, to, sendT)
		var resp []byte
		var service vclock.Duration
		if !lost {
			// Request arrived: execute exactly once per idempotency key.
			// A retransmission finds the stored response and replays it,
			// charging the target a bare suppressed interrupt.
			service = l.net.ScaledSW(to, l.link.HandlerNs)
			if cached, dup := tbl.lookup(key); dup {
				resp = cached
				l.addSuppressed(to)
			} else {
				r, extra := h(from, req)
				tbl.store(key, r)
				resp = r
				service += l.net.ScaledSW(to, extra)
			}
			target.Steal(service)
			if rec := l.rec; rec != nil && rec.Enabled() {
				rec.Record(int(to), perfmon.EvService, target.Now(), service, uint64(from), uint64(kind))
			}
			// A network-duplicated copy of the request costs the target
			// one more suppressed interrupt, nothing else.
			if l.net.LinkDup(from, to) {
				target.Steal(l.net.ScaledSW(to, l.link.HandlerNs))
				l.addSuppressed(to)
			}
			// The response (or ack) can be lost on the way back. The
			// fate comes from the caller's own link stream (AckLost) so
			// that no two goroutines ever share a draw counter.
			lost = l.net.AckLost(from, to, sendT)
		}

		if !lost {
			if !oneway {
				// Clean round trip: the caller's timeline absorbs the
				// request wire, the service time, and the response travel
				// — exactly the fault-free Call charges.
				caller.AdvanceCat(vclock.CatNetwork, l.net.WireNs(from, to, 0))
				caller.AdvanceCat(vclock.CatProtocol, service)
				caller.AdvanceCat(vclock.CatNetwork, l.net.WireNs(to, from, len(resp))+
					l.net.ScaledSW(from, l.link.RecvSWNs))
			}
			// One-way: the ack is absorbed by the NIC; a clean posted
			// send costs what the fault-free Notify costs.
			l.count(from, to, len(req), len(resp))
			return resp, nil
		}

		// Lost request or ack: the caller burns the retransmission timer
		// (plus seeded jitter, so concurrent retries desynchronize) in
		// virtual time.
		wait := rto + l.net.FaultJitter(from, to, rto/4+1)
		caller.AdvanceCat(vclock.CatNetwork, wait)
		if rec := l.rec; rec != nil && rec.Enabled() {
			rec.Record(int(from), perfmon.EvTimeout, start, vclock.Since(start, caller.Now()), uint64(to), uint64(attempt))
		}
		if attempt >= pol.MaxAttempts {
			l.count(from, to, len(req), 0)
			_, executed := tbl.lookup(key)
			return nil, &UnreachableError{Node: to, Kind: kind, Attempts: attempt, Executed: executed}
		}
		if rec := l.rec; rec != nil && rec.Enabled() {
			rec.Record(int(from), perfmon.EvRetry, caller.Now(), 0, uint64(to), uint64(attempt))
		}
		l.addRetry(from)
		rto *= 2
		if rto > pol.MaxBackoff {
			rto = pol.MaxBackoff
		}
	}
}

func (l *Layer) addRetry(id NodeID)      { l.stats[id].retries.Add(1) }
func (l *Layer) addSuppressed(id NodeID) { l.stats[id].suppressed.Add(1) }
