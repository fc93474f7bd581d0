package vclock

import (
	"math/rand"
	"testing"
)

// rackLA is a two-tier lookahead matrix: 1000 within a rack of three
// consecutive nodes, 2500 across racks.
func rackLA(n int) [][]Duration {
	la := make([][]Duration, n)
	for p := range la {
		la[p] = make([]Duration, n)
		for r := range la[p] {
			if p == r {
				continue
			}
			la[p][r] = 1000
			if p/3 != r/3 {
				la[p][r] = 2500 // another rack
			}
		}
	}
	return la
}

// shortestPathLA is a random lookahead matrix closed under shortest
// paths (Floyd–Warshall over random edge weights, some of them zero), so
// it obeys the triangle inequality without any hierarchy behind it.
func shortestPathLA(rng *rand.Rand, n int) [][]Duration {
	la := make([][]Duration, n)
	for p := range la {
		la[p] = make([]Duration, n)
		for r := range la[p] {
			if p != r && rng.Intn(8) > 0 {
				la[p][r] = Duration(rng.Intn(5000))
			}
		}
	}
	for q := range la {
		for p := range la {
			for r := range la {
				la[p][r] = min(la[p][r], la[p][q]+la[q][r])
			}
		}
	}
	for p := range la {
		la[p][p] = 0
	}
	return la
}

// The engine's one-pass bound must equal the activation Dijkstra on every
// reachable state, over the published table and, for Horizon, over live
// state: under the triangle inequality no chain through a woken peer
// beats its waker's direct term. The states mix running, receive-waiting,
// down and retired nodes, and let the live clocks and queues run ahead of
// the table.
func TestEngineBoundMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name   string
		matrix func(n int) [][]Duration
	}{
		{"uniform", func(n int) [][]Duration { return uniformLA(n, Duration(1+rng.Intn(3))*500) }},
		{"rack", rackLA},
		{"shortest-path", func(n int) [][]Duration { return shortestPathLA(rng, n) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				la := c.matrix(2 + rng.Intn(9))
				n := len(la)
				clocks := make([]*Clock, n)
				for i := range clocks {
					clocks[i] = &Clock{}
				}
				e := NewEngine(clocks, la)
				qmin := make([]uint64, n)
				e.SetQueueMin(func(node int) (Time, bool) {
					if qmin[node]%3 == 0 {
						return 0, false
					}
					return Time(qmin[node]), true
				})
				for i := range clocks {
					clocks[i].Advance(Duration(rng.Intn(20_000)))
					qmin[i] = uint64(rng.Intn(30_000))
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
				}
				// Let live state run ahead of what the table holds.
				for i := range clocks {
					if rng.Intn(2) == 0 {
						clocks[i].Advance(Duration(rng.Intn(5_000)))
					}
					if rng.Intn(3) == 0 {
						qmin[i] = uint64(rng.Intn(30_000))
					}
				}
				for r := 0; r < n; r++ {
					e.mu.Lock()
					tb, table, live := e.boundLocked(r), e.exactLocked(r, false), e.exactLocked(r, true)
					e.mu.Unlock()
					if tb != table {
						t.Fatalf("trial %d node %d: table bound %d, Dijkstra over the table %d (la %v)", trial, r, tb, table, la)
					}
					if h := uint64(e.Horizon(r)); h != live {
						t.Fatalf("trial %d node %d: Horizon %d, Dijkstra over live state %d (la %v)", trial, r, h, live, la)
					}
				}
			}
		})
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
	// Record node 2 as retired (entry = inf) in the table.
	if safe(e, 0, 20_000) {
		t.Fatal("arrival past the live peer's horizon must not be safe")
	}
	e.SetRetired(2, false)
	// Node 2 is live again at clock 0: its horizon contribution is 1000,
	// so 5000 must be unsafe even though its retired-era entry was inf.
	if safe(e, 0, 5_000) {
		t.Fatal("stale retired-era entry must not admit past a revived node")
	}
}
