package cluster

// Cluster health monitoring: the graceful-degradation half of HAMSTER's
// cluster control (§4.2). A Monitor probes peers with heartbeat active
// messages; a peer that misses enough consecutive probes is declared
// down, recorded as a perfmon EvNodeDown event, reported through
// Diagnostic, and — via the amsg notice path — fenced off so subsequent
// protocol calls to it fail fast instead of burning full retry cycles.
//
// Probes run on the prober's goroutine in virtual time: a probe of a
// healthy peer costs one clean active-message round trip, a probe of a
// dead one costs the full retry/backoff budget. Detection is therefore
// as deterministic as the fault plan that killed the node.

import (
	"fmt"
	"strings"
	"sync"

	"hamster/internal/amsg"
	"hamster/internal/perfmon"
	"hamster/internal/vclock"
)

// KindHeartbeat is the reserved active-message kind of the liveness
// probe (below simnet.UserKindBase; user traffic cannot collide).
const KindHeartbeat amsg.Kind = 1000

// HeartbeatCost is the extra service cost of answering a probe beyond
// the link's base handler cost.
const HeartbeatCost vclock.Duration = 200

// DefaultThreshold is the number of consecutive missed probes after
// which a peer is declared down.
const DefaultThreshold = 3

// NodeStatus is a Monitor's opinion of one peer.
type NodeStatus int

// The health states. A node goes Up → Suspect on the first missed
// probe and Suspect → Down at the threshold; Down is permanent (the
// fault model is fail-stop).
const (
	Up NodeStatus = iota
	Suspect
	Down
)

// String names the status.
func (s NodeStatus) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// Monitor is a cluster-wide failure detector over an active-message
// layer. All methods are safe for concurrent use; any node may probe
// from its own goroutine.
type Monitor struct {
	layer     *amsg.Layer
	threshold int
	rec       *perfmon.Recorder

	mu     sync.Mutex
	missed []int
	status []NodeStatus
	reason []string
}

// NewMonitor builds a monitor over the layer and registers the heartbeat
// echo handler on every node. threshold <= 0 selects DefaultThreshold;
// rec may be nil.
func NewMonitor(layer *amsg.Layer, threshold int, rec *perfmon.Recorder) *Monitor {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	size := layer.Network().Size()
	m := &Monitor{
		layer:     layer,
		threshold: threshold,
		rec:       rec,
		missed:    make([]int, size),
		status:    make([]NodeStatus, size),
		reason:    make([]string, size),
	}
	echo := func(from amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		return req, HeartbeatCost
	}
	for id := 0; id < size; id++ {
		layer.Register(amsg.NodeID(id), KindHeartbeat, echo)
	}
	return m
}

// Probe sends one heartbeat from → to and folds the outcome into the
// health state, returning the peer's status afterwards. Reaching the
// miss threshold marks the peer down, records EvNodeDown, and fences it
// off in the amsg layer.
func (m *Monitor) Probe(from, to amsg.NodeID) NodeStatus {
	if from == to {
		return Up
	}
	m.mu.Lock()
	if m.status[to] == Down {
		m.mu.Unlock()
		return Down
	}
	m.mu.Unlock()

	_, err := m.layer.CallErr(from, to, KindHeartbeat, nil)

	m.mu.Lock()
	if err == nil {
		m.missed[to] = 0
		m.status[to] = Up
		m.mu.Unlock()
		return Up
	}
	m.missed[to]++
	m.status[to] = Suspect
	m.reason[to] = err.Error()
	declared := m.missed[to] >= m.threshold
	misses := m.missed[to]
	if declared {
		m.status[to] = Down
	}
	st := m.status[to]
	m.mu.Unlock()

	if declared {
		m.layer.MarkDown(to)
		if m.rec != nil && m.rec.Enabled() {
			m.rec.Record(int(from), perfmon.EvNodeDown,
				m.layer.Network().Clock(from).Now(), 0, uint64(to), uint64(misses))
		}
	}
	return st
}

// Sweep probes every peer of from, repeating up to the miss threshold so
// a single sweep is enough to take a dead node all the way to Down.
// Returns the nodes found down.
func (m *Monitor) Sweep(from amsg.NodeID) []amsg.NodeID {
	var down []amsg.NodeID
	for id := 0; id < len(m.status); id++ {
		to := amsg.NodeID(id)
		if to == from {
			continue
		}
		st := m.Probe(from, to)
		for i := 1; i < m.threshold && st == Suspect; i++ {
			st = m.Probe(from, to)
		}
		if st == Down {
			down = append(down, to)
		}
	}
	return down
}

// Status returns the monitor's current opinion of a node.
func (m *Monitor) Status(id amsg.NodeID) NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status[id]
}

// Threshold returns the consecutive-miss count that marks a node down.
func (m *Monitor) Threshold() int { return m.threshold }

// Diagnostic renders a one-paragraph cluster health report, the text a
// failed fault campaign prints on exit.
func (m *Monitor) Diagnostic() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var up, bad []string
	for id, st := range m.status {
		switch st {
		case Up:
			up = append(up, fmt.Sprint(id))
		case Suspect:
			bad = append(bad, fmt.Sprintf("node %d SUSPECT after %d missed heartbeats (%s)",
				id, m.missed[id], m.reason[id]))
		case Down:
			bad = append(bad, fmt.Sprintf("node %d DOWN after %d missed heartbeats (%s)",
				id, m.missed[id], m.reason[id]))
		}
	}
	s := "cluster health: "
	if len(bad) == 0 {
		return s + "all nodes up"
	}
	s += strings.Join(bad, "; ")
	if len(up) > 0 {
		s += "; nodes " + strings.Join(up, ",") + " up"
	}
	return s
}
