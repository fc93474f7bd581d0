package simnet

import "sync/atomic"

// countGateWakes counts every return of one of n's gated receivers from
// its wake slot. Call it before any traffic.
func countGateWakes(n *Network) *atomic.Int64 {
	wakes := new(atomic.Int64)
	n.gateWoke = func() { wakes.Add(1) }
	return wakes
}
