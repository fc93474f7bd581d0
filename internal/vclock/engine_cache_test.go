package vclock

import (
	"math/rand"
	"testing"
)

// The uniform-lookahead closed form must agree with the generic Dijkstra
// pass on every reachable engine state: both are exact, the closed form
// is just O(n).
func TestEngineUniformClosedFormMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		e, clocks := engineN(n, Duration(1+rng.Intn(3))*500)
		qmin := make([]uint64, n)
		for i := range clocks {
			clocks[i].Advance(Duration(rng.Intn(20_000)))
			switch rng.Intn(5) {
			case 0:
				e.GateBegin()
				e.GateRecvWait(i)
				e.GateEnd()
			case 1:
				e.MarkDown(i)
			case 2:
				e.SetRetired(i, true)
			}
			qmin[i] = uint64(rng.Intn(30_000))
		}
		e.SetQueueMin(func(node int) (Time, bool) {
			if qmin[node]%3 == 0 {
				return 0, false
			}
			return Time(qmin[node]), true
		})
		e.mu.Lock()
		e.allBoundsUniformLocked()
		got := append([]uint64(nil), e.cacheVal...)
		e.allBoundsGenericLocked()
		want := append([]uint64(nil), e.cacheVal...)
		e.mu.Unlock()
		for p := range got {
			if got[p] != want[p] {
				t.Fatalf("trial %d node %d: closed form %d, Dijkstra %d (state %+v)",
					trial, p, got[p], want[p], e)
			}
		}
	}
}

// Un-retiring a node (a new run starting) is the one transition that
// tightens engine state. GateSafe decides from the published table
// first, so SetRetired(false) must restart the node's entry from its live
// clock — a retired-era entry would otherwise admit deliveries past the
// now-live node.
func TestEngineUnretireInvalidatesCachedVector(t *testing.T) {
	e, clocks := engineN(3, 1000)
	clocks[1].Advance(10_000)
	e.SetRetired(2, true)
	// Force the cached vector to record node 2 as retired (bound = inf).
	if safe(e, 0, 20_000) {
		t.Fatal("arrival past the live peer's horizon must not be safe")
	}
	e.SetRetired(2, false)
	// Node 2 is live again at clock 0: its horizon contribution is 1000,
	// so 5000 must be unsafe even though the retired-era cache says inf.
	if safe(e, 0, 5_000) {
		t.Fatal("stale retired-era cache must not admit past a revived node")
	}
}
