package core

import (
	"encoding/binary"

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

// Broadcast sends a user message to all other nodes.
func (c *ClusterCtl) Broadcast(tag uint32, payload []byte) {
	c.e.charge(ModCluster)
	c.e.rt.msgs.Broadcast(toNodeID(c.e.id), kindUserMsg, tag, payload)
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
