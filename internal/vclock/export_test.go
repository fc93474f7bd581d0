package vclock

// exactLocked is the reference delivery bound for node self: the
// Chandy–Misra–Bryant activation Dijkstra over the published table
// (live=false) or over the live clocks and queue minima (live=true).
// It relaxes every chain through receive-waiting peers, which boundLocked
// and Horizon skip on the strength of the triangle inequality, so tests
// hold those against it. A blocked node's activation is the earliest
// arrival it could consume: its own queue minimum or a peer's activation
// plus the lookahead, floored at its clock. Requires mu.
func (e *Engine) exactLocked(self int, live bool) uint64 {
	n := len(e.clocks)
	clk, val, done := make([]uint64, n), make([]uint64, n), make([]bool, n)
	copy(clk, e.pclk)
	if live {
		for p, c := range e.clocks {
			clk[p] = uint64(c.Now())
		}
	}
	for p := range val {
		qmin := e.pqmin[p]
		if live {
			qmin = e.queueMinLocked(p)
		}
		switch {
		case p == self || e.down[p] || e.retired[p]:
			val[p], done[p] = infTime, true
		case !e.recvWait[p]:
			val[p], done[p] = clk[p], true
		default:
			val[p] = max(clk[p], qmin)
		}
	}
	relax := func(p int) {
		for q := range val {
			if !done[q] {
				val[q] = min(val[q], max(clk[q], satAdd(val[p], uint64(e.la[p][q]))))
			}
		}
	}
	for p := range val {
		if done[p] {
			relax(p)
		}
	}
	for {
		best := -1
		for p := range val {
			if !done[p] && (best < 0 || val[p] < val[best]) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		relax(best)
	}
	bound := infTime
	for p := range val {
		if p != self {
			bound = min(bound, satAdd(val[p], uint64(e.la[p][self])))
		}
	}
	return bound
}
