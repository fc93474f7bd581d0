package vclock

// allBoundsUniformLocked fills cacheVal with the uniform-lookahead closed
// form — every node's activation from the derived minima — so tests can
// hold it against the generic Dijkstra pass over the same table.
// Requires mu.
func (e *Engine) allBoundsUniformLocked() {
	e.stale = true
	for p := range e.cacheVal {
		e.cacheVal[p] = e.activationLocked(p)
	}
}
