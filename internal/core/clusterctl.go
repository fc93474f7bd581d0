package core

import (
	"encoding/binary"
	"math"

	"hamster/internal/memsim"
	"hamster/internal/simnet"
)

// Message kinds on the cluster-control messaging layer.
const (
	kindUserMsg        = simnet.UserKindBase
	kindRegionAnnounce = simnet.UserKindBase + 1
)

// msgT aliases the wire message type for the module's receive filters.
type msgT = simnet.Message

func toNodeID(id int) simnet.NodeID { return simnet.NodeID(id) }

// ClusterCtl is the Cluster Control module (§4.2): node identification,
// node-parameter queries, and the simple messaging layer used both for
// initialization and — uniquely among the modules — as a service exported
// to applications (§3.3 exposes the coalesced interconnect "to the user
// for external messaging").
type ClusterCtl struct {
	e *Env
}

// Self returns this node's id.
func (c *ClusterCtl) Self() int { return c.e.id }

// NodeParams describes one node for parameter queries.
type NodeParams struct {
	ID       int
	Platform string
	CPUs     int
	FlopNs   uint64
}

// QueryNode returns a node's parameters.
func (c *ClusterCtl) QueryNode(id int) NodeParams {
	c.e.charge(ModCluster)
	p := c.e.rt.sub.Params()
	return NodeParams{
		ID:       id,
		Platform: c.e.rt.sub.Kind().String(),
		CPUs:     1,
		FlopNs:   uint64(p.CPU.FlopNs),
	}
}

// Send transmits a user message to another node over the integrated
// messaging layer.
func (c *ClusterCtl) Send(to int, tag uint32, payload []byte) {
	c.e.charge(ModCluster)
	c.e.rt.msgs.Send(toNodeID(c.e.id), toNodeID(to), kindUserMsg, tag, payload)
}

// Recv blocks until a user message with the given tag arrives and returns
// its payload and sender. Returns ok=false if the runtime is closed.
func (c *ClusterCtl) Recv(tag uint32) (payload []byte, from int, ok bool) {
	c.e.charge(ModCluster)
	m := c.e.rt.msgs.Recv(toNodeID(c.e.id), kindUserMsg, func(m *msgT) bool {
		return m.Tag == tag
	})
	if m == nil {
		return nil, 0, false
	}
	payload, from = m.Payload, int(m.From)
	m.Free()
	return payload, from, true
}

// broadcast sends a user message to all other nodes.
func (c *ClusterCtl) broadcast(tag uint32, payload []byte) {
	c.e.charge(ModCluster)
	c.e.rt.msgs.Broadcast(toNodeID(c.e.id), kindUserMsg, tag, payload)
}

// ReduceF64 combines one value per node and returns the result to every
// node: the others send theirs to node 0 on tag up, node 0 folds them into
// its own with combine, in arrival order, and broadcasts the result on tag
// down. Every node must call it with the same tags and combine.
func (c *ClusterCtl) ReduceF64(up, down uint32, v float64, combine func(acc, v float64) float64) float64 {
	if c.e.id != 0 {
		c.Send(0, up, f64Bytes(v))
		return c.recvF64(down)
	}
	for i := 1; i < c.e.N(); i++ {
		v = combine(v, c.recvF64(up))
	}
	c.broadcast(down, f64Bytes(v))
	return v
}

// BcastF64 returns root's v on every node: root broadcasts it on tag and
// the others receive it.
func (c *ClusterCtl) BcastF64(tag uint32, root int, v float64) float64 {
	if c.e.id == root {
		c.broadcast(tag, f64Bytes(v))
		return v
	}
	return c.recvF64(tag)
}

// recvF64 receives one value of a collective.
func (c *ClusterCtl) recvF64(tag uint32) float64 {
	payload, _, ok := c.Recv(tag)
	if !ok {
		panic("core: collective interrupted: the runtime is closed")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload))
}

func f64Bytes(v float64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), math.Float64bits(v))
}

// encodeRegion/decodeRegion serialize region metadata for Distribute.
func encodeRegion(r memsim.Region) []byte {
	buf := make([]byte, 0, 24)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Base))
	buf = binary.LittleEndian.AppendUint64(buf, r.Size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Policy))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.FixedNode))
	return buf
}

func decodeRegion(b []byte) memsim.Region {
	return memsim.Region{
		Base:      memsim.Addr(binary.LittleEndian.Uint64(b)),
		Size:      binary.LittleEndian.Uint64(b[8:]),
		Policy:    memsim.Policy(binary.LittleEndian.Uint32(b[16:])),
		FixedNode: int(int32(binary.LittleEndian.Uint32(b[20:]))),
	}
}
