package serve

import (
	"fmt"
	"math"
	"math/bits"
)

// runMerge walks a consumer's ingest queue in (arrival, producer) order
// without moving an op. The queue holds one run per producer, each in
// arrival order, so a tournament over the at most l.prods run heads
// gives the order a stable sort by arrival of the producer-major queue
// gives, for log P comparisons per op instead of the sort's log n. It
// is a loser tree: leaf p is producer p's run, each match keeps its
// loser, and a pop replays only the matches on the winner's path. The
// scratch is allocated once, in newRunMerge.
type runMerge struct {
	node int       // the consumer, named by the out-of-order panic
	runs []runSpan // per producer, padded with empty runs to a power of two
	tree []entrant // tree[1:]: the loser of each match; tree[0]: the winner
	ops  []op
}

// runSpan is what is left of one producer's run: ops[next:end].
type runSpan struct{ next, end int }

// entrant is a run in the tournament, keyed by its head's arrival. A
// spent run's key is spentKey: arrivals lie below the horizon, which
// Config.Validate keeps below 2^64.
type entrant struct {
	key uint64
	run int
}

const spentKey = math.MaxUint64

// swapIfBefore plays one match: when a goes before b — the earlier
// arrival, on a tie the lower producer — it returns (b, a), else (a, b).
// Branch-free, because the outcome of a merge's matches is a coin flip.
func swapIfBefore(a, b entrant) (entrant, entrant) {
	_, borrow := bits.Sub64(uint64(a.run), uint64(b.run), 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	mask := -borrow
	xk, xr := (a.key^b.key)&mask, (a.run^b.run)&int(mask)
	return entrant{a.key ^ xk, a.run ^ xr}, entrant{b.key ^ xk, b.run ^ xr}
}

func newRunMerge(node, prods int) runMerge {
	k := 1
	for k < prods {
		k *= 2
	}
	return runMerge{node: node, runs: make([]runSpan, k), tree: make([]entrant, k)}
}

// setRun records producer p's run as ops[start:end) of the next queue
// start walks.
func (mg *runMerge) setRun(p, start, end int) {
	mg.runs[p] = runSpan{start, end}
}

// start begins a walk over ops with the runs set since the last walk:
// every run climbs from its leaf until it meets a match whose other side
// has not arrived yet and waits there; the last match's winner is
// tree[0].
func (mg *runMerge) start(ops []op) {
	mg.ops = ops
	k := len(mg.runs)
	for i := range mg.tree {
		mg.tree[i].run = -1
	}
	for p, r := range mg.runs {
		e := entrant{spentKey, p}
		if r.next < r.end {
			e.key = ops[r.next].arrival
		}
		n := (p + k) / 2
		for ; n > 0 && mg.tree[n].run >= 0; n /= 2 {
			mg.tree[n], e = swapIfBefore(mg.tree[n], e)
		}
		mg.tree[n] = e
	}
}

// pop returns the queue index of the next op in (arrival, producer)
// order, and false once every run is spent. It panics on a run that
// goes back in time: that would be a fabric bug, and a merge over it
// would silently apply ops out of order.
func (mg *runMerge) pop() (int, bool) {
	e := mg.tree[0]
	if e.key == spentKey {
		return 0, false
	}
	r := &mg.runs[e.run]
	i := r.next
	r.next++
	if r.next < r.end {
		at := mg.ops[r.next].arrival
		if at < e.key {
			panic(fmt.Sprintf("serve: node %d: producer %d's ingest run goes back in time: arrival %d after %d",
				mg.node, e.run, at, e.key))
		}
		e.key = at
	} else {
		e.key = spentKey
	}
	for n := (e.run + len(mg.runs)) / 2; n > 0; n /= 2 {
		mg.tree[n], e = swapIfBefore(mg.tree[n], e)
	}
	mg.tree[0] = e
	return i, true
}
