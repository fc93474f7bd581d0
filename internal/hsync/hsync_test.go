package hsync

import (
	"sync"
	"testing"

	"hamster/internal/machine"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// unitMsg prices every hop at 1 so PathCost and Request costs count hops.
func unitMsg(_, _, _ int) vclock.Duration { return 1 }

func TestTreeShapeFlat(t *testing.T) {
	tr := NewTree(64, simnet.Topology{})
	if tr.parentOf(0) != -1 || tr.depthOf(0) != 0 {
		t.Fatalf("root: parent %d depth %d", tr.parentOf(0), tr.depthOf(0))
	}
	// Arity-8 heap: children of 0 are 1..8, children of 1 are 9..16.
	if tr.parentOf(8) != 0 || tr.parentOf(9) != 1 || tr.parentOf(16) != 1 || tr.parentOf(17) != 2 {
		t.Fatalf("flat heap parents wrong: %d %d %d %d",
			tr.parentOf(8), tr.parentOf(9), tr.parentOf(16), tr.parentOf(17))
	}
	for i := 1; i < 64; i++ {
		if tr.depthOf(i) != tr.depthOf(tr.parentOf(i))+1 {
			t.Fatalf("node %d: depth %d, parent depth %d", i, tr.depthOf(i), tr.depthOf(tr.parentOf(i)))
		}
	}
}

func TestTreeShapeRackAndFatTree(t *testing.T) {
	rack, _ := simnet.TopologyPreset(simnet.TopoRack)
	tr := NewTree(64, rack)
	// Rack members report to the rack leader, leaders to node 0.
	if tr.parentOf(13) != 8 || tr.parentOf(8) != 0 || tr.parentOf(63) != 56 || tr.parentOf(56) != 0 {
		t.Fatalf("rack parents wrong: %d %d %d %d",
			tr.parentOf(13), tr.parentOf(8), tr.parentOf(63), tr.parentOf(56))
	}
	if tr.depthOf(13) != 2 || tr.depthOf(8) != 1 {
		t.Fatalf("rack depths wrong: %d %d", tr.depthOf(13), tr.depthOf(8))
	}

	fat, _ := simnet.TopologyPreset(simnet.TopoFatTree)
	ft := NewTree(256, fat)
	// Pods of 4 racks * 8 nodes: node 100 is rack 12 (leader 96), pod 3
	// (leader 96 — rack 12 is pod 3's first rack), so 96 reports to 0.
	if ft.parentOf(100) != 96 || ft.parentOf(96) != 0 {
		t.Fatalf("fattree parents wrong: %d %d", ft.parentOf(100), ft.parentOf(96))
	}
	// Node 140: rack 17 (leader 136), pod 4 (leader 128), then root.
	if ft.parentOf(140) != 136 || ft.parentOf(136) != 128 || ft.parentOf(128) != 0 {
		t.Fatalf("fattree chain wrong: %d %d %d",
			ft.parentOf(140), ft.parentOf(136), ft.parentOf(128))
	}
	if ft.depthOf(140) != 3 {
		t.Fatalf("fattree depth(140) = %d, want 3", ft.depthOf(140))
	}
}

func TestTreePathCost(t *testing.T) {
	fat, _ := simnet.TopologyPreset(simnet.TopoFatTree)
	ft := NewTree(256, fat)
	// Per-hop unit cost: PathCost == Depth.
	for _, n := range []int{0, 1, 8, 100, 140, 255} {
		if got, want := ft.PathCost(n, 16, unitMsg), vclock.Duration(ft.depthOf(n)); got != want {
			t.Errorf("PathCost(%d) = %v, want depth %v", n, got, want)
		}
	}
	// With the real topology cost the member→leader edge is same-rack
	// (cheap) and the leader edges cross racks/pods (expensive), so a
	// deep node's path must cost strictly more than its leader's.
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200}
	msg := func(a, b, bytes int) vclock.Duration { return fat.MsgCost(link, a, b, bytes) }
	if ft.PathCost(140, 16, msg) <= ft.PathCost(136, 16, msg) {
		t.Error("member path must cost more than its rack leader's")
	}
}

func TestDLockChainCompression(t *testing.T) {
	dl := NewDLock(vclock.NewVLock(), 16, 3)
	// First request from 5: one hop to the home (3), then 5 holds.
	prev, cost, hops := dl.Request(5, 8, unitMsg, nil, 0)
	if prev != 3 || hops != 1 || cost != 1 {
		t.Fatalf("first request: prev %d cost %v hops %d", prev, cost, hops)
	}
	if dl.probableHolder() != 5 {
		t.Fatalf("holder = %d, want 5", dl.probableHolder())
	}
	// Node 7 still hints at the stale home: 7→3→5, two hops, and the walk
	// repoints both onto 7.
	if dl.chainLen(7) != 2 {
		t.Fatalf("chainLen(7) = %d, want 2", dl.chainLen(7))
	}
	prev, _, hops = dl.Request(7, 8, unitMsg, nil, 0)
	if prev != 5 || hops != 2 {
		t.Fatalf("stale-hint request: prev %d hops %d", prev, hops)
	}
	// Path compression: 3 now points straight at 7.
	if dl.chainLen(3) != 1 {
		t.Fatalf("after compression chainLen(3) = %d, want 1", dl.chainLen(3))
	}
	// Re-request by the holder is free.
	prev, cost, hops = dl.Request(7, 8, unitMsg, nil, 0)
	if prev != 7 || cost != 0 || hops != 0 {
		t.Fatalf("holder re-request: prev %d cost %v hops %d", prev, cost, hops)
	}
}

func TestDLockStealChargesForwarders(t *testing.T) {
	dl := NewDLock(vclock.NewVLock(), 8, 0)
	dl.Request(1, 8, unitMsg, nil, 0) // holder: 1, node 2 still hints 0
	var stolen []int
	steal := func(node int, d vclock.Duration) {
		if d != 50 {
			t.Fatalf("steal %v, want 50", d)
		}
		stolen = append(stolen, node)
	}
	// 2 → 0 (forwarder, stolen) → 1 (predecessor, stolen).
	dl.Request(2, 8, unitMsg, steal, 50)
	if len(stolen) != 2 || stolen[0] != 0 || stolen[1] != 1 {
		t.Fatalf("stolen = %v, want [0 1]", stolen)
	}
}

// TestDLockHopsArriveAlongTheWire: each forwarding interrupt is stamped
// with the time the request reached that node — the requester's clock
// when it sent the request plus the wires of the hops so far.
func TestDLockHopsArriveAlongTheWire(t *testing.T) {
	dl := NewDLock(vclock.NewVLock(), 8, 0)
	dl.Request(1, 8, unitMsg, nil, 0) // holder: 1, node 2 still hints 0
	var at []vclock.Time
	dl.requestAt(2, 1000, 8, unitMsg, func(_ int, t0 vclock.Time, _ vclock.Duration) { at = append(at, t0) }, 50)
	w := vclock.Time(unitMsg(2, 0, 8))
	if len(at) != 2 || at[0] != 1000+w || at[1] != 1000+2*w {
		t.Fatalf("arrivals = %v, want [%d %d]", at, 1000+w, 1000+2*w)
	}
}

func TestDLockProbeDoesNotMutate(t *testing.T) {
	dl := NewDLock(vclock.NewVLock(), 8, 0)
	dl.Request(3, 8, unitMsg, nil, 0)
	prev, cost := dl.probe(5, 8, unitMsg)
	if prev != 3 || cost != 2 { // 5→0→3
		t.Fatalf("probe: prev %d cost %v", prev, cost)
	}
	if dl.probableHolder() != 3 || dl.chainLen(5) != 2 {
		t.Fatal("Probe mutated the chain")
	}
	dl.commit(5)
	if dl.probableHolder() != 5 || dl.chainLen(3) != 1 {
		t.Fatal("Commit did not claim the token")
	}
}

// TestDLockMutualExclusion64 drives 64 goroutine nodes through a shared
// DLock+VLock critical section and checks mutual exclusion plus hint-
// chain sanity. Run under -race by check.sh.
func TestDLockMutualExclusion64(t *testing.T) {
	const nodes = 64
	const rounds = 20
	vl := vclock.NewVLock()
	dl := NewDLock(vl, nodes, 0)
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	var inside int32
	var insideMu sync.Mutex
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				prev, cost, _ := dl.Request(n, 8, unitMsg, nil, 0)
				grant := vclock.Duration(0)
				if prev != n {
					grant = 1
				}
				vl.Acquire(clocks[n], cost, grant)
				insideMu.Lock()
				inside++
				if inside != 1 {
					t.Errorf("mutual exclusion violated: %d inside", inside)
				}
				inside--
				insideMu.Unlock()
				vl.Release(clocks[n], 0)
			}
		}(n)
	}
	wg.Wait()
	// The chain stays bounded: any node reaches the holder without the
	// cycle guard tripping (walk panics on a cycle).
	for n := 0; n < nodes; n++ {
		if l := dl.chainLen(n); l < 0 || l > nodes {
			t.Fatalf("chainLen(%d) = %d", n, l)
		}
	}
}

// depthOf returns a node's distance from the root in tree hops.
func (t *Tree) depthOf(n int) int { return t.depth[n] }

// probableHolder reports the current probable holder (for tests).
func (d *DLock) probableHolder() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.holder
}

// chainLen reports how many hops a request from node would take (for
// tests).
func (d *DLock) chainLen(node int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _, hops := d.walk(node, 0, 0, func(_, _, _ int) vclock.Duration { return 0 }, nil, 0, false)
	return hops
}
