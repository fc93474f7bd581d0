package vclock

import (
	"strings"
	"testing"
)

// engineN builds an n-node engine over fresh clocks with a uniform
// off-diagonal lookahead.
func engineN(n int, la Duration) (*Engine, []*Clock) {
	clocks := make([]*Clock, n)
	for i := range clocks {
		clocks[i] = &Clock{}
	}
	return NewEngine(clocks, uniformLA(n, la)), clocks
}

// uniformLA is an n-node lookahead matrix with every off-diagonal entry la.
func uniformLA(n int, la Duration) [][]Duration {
	m := make([][]Duration, n)
	for p := range m {
		m[p] = make([]Duration, n)
		for r := range m[p] {
			if p != r {
				m[p][r] = la
			}
		}
	}
	return m
}

func safe(e *Engine, self int, t Time) bool {
	e.GateBegin()
	defer e.GateEnd()
	return e.GateSafe(self, t)
}

func TestEngineRunningPeersBoundByClock(t *testing.T) {
	e, clocks := engineN(3, 1000)
	clocks[1].Advance(5000)
	clocks[2].Advance(5000)
	if !safe(e, 0, 6000) {
		t.Fatal("arrival at clock+lookahead must be safe")
	}
	if safe(e, 0, 6001) {
		t.Fatal("arrival past clock+lookahead must not be safe")
	}
	if got := e.Horizon(0); got != 6000 {
		t.Fatalf("Horizon = %d, want 6000", got)
	}
}

func TestEngineRecvWaitActivationBound(t *testing.T) {
	// Node 1 is blocked in a receive with nothing queued; node 2 runs at
	// 10000. Node 1 cannot send before it consumes something node 2
	// sends, so its next-send bound is 10000+1000; node 0's horizon is
	// min(11000+1000, 10000+1000) = 11000 — the blocked peer does NOT
	// pin the horizon at its own frozen clock.
	e, clocks := engineN(3, 1000)
	clocks[2].Advance(10_000)
	e.GateBegin()
	e.GateRecvWait(1)
	e.GateEnd()
	if got := e.Horizon(0); got != 11_000 {
		t.Fatalf("Horizon = %d, want 11000", got)
	}
	if !safe(e, 0, 11_000) || safe(e, 0, 11_001) {
		t.Fatal("horizon edge mis-gated")
	}
}

func TestEngineQueueMinBoundsBlockedPeer(t *testing.T) {
	// Same shape, but node 1 has a message queued arriving at 3000: it
	// could consume it and send immediately after, so node 0's horizon
	// tightens to 3000+1000.
	e, clocks := engineN(3, 1000)
	clocks[2].Advance(10_000)
	e.SetQueueMin(func(node int) (Time, bool) {
		if node == 1 {
			return 3000, true
		}
		return 0, false
	})
	e.GateBegin()
	e.GateRecvWait(1)
	e.GateEnd()
	if got := e.Horizon(0); got != 4000 {
		t.Fatalf("Horizon = %d, want 4000", got)
	}
}

func TestEngineIdleClusterHasInfiniteHorizon(t *testing.T) {
	// Every peer is blocked with an empty queue: nothing can ever wake
	// them (self is excluded — its influence is necessarily later than
	// any candidate delivery), so any arrival is safe. This is the
	// early-finished-worker case: idle nodes never stall the cluster.
	e, _ := engineN(4, 1000)
	e.GateBegin()
	for p := 1; p < 4; p++ {
		e.GateRecvWait(p)
	}
	e.GateEnd()
	if got := e.Horizon(0); got != Time(infTime) {
		t.Fatalf("Horizon = %d, want infinite", got)
	}
	if !safe(e, 0, 1<<60) {
		t.Fatal("idle cluster must not gate any arrival")
	}
}

func TestEngineGateRunRestoresClockBound(t *testing.T) {
	e, _ := engineN(2, 1000)
	e.GateBegin()
	e.GateRecvWait(1)
	e.GateEnd()
	if got := e.Horizon(0); got != Time(infTime) {
		t.Fatalf("Horizon with blocked peer = %d, want infinite", got)
	}
	e.GateBegin()
	e.GateRun(1, 0)
	e.GateEnd()
	if got := e.Horizon(0); got != 1000 {
		t.Fatalf("Horizon with running peer = %d, want 1000", got)
	}
}

func TestEngineDownNodeDropsOutOfHorizon(t *testing.T) {
	e, clocks := engineN(3, 1000)
	clocks[1].Advance(2000) // the laggard
	clocks[2].Advance(9000)
	if got := e.Horizon(0); got != 3000 {
		t.Fatalf("Horizon = %d, want 3000", got)
	}
	e.MarkDown(1)
	if got := e.Horizon(0); got != 10_000 {
		t.Fatalf("Horizon after MarkDown = %d, want 10000", got)
	}
}

func TestNewEngineRejectsNonMetricLookahead(t *testing.T) {
	// 3 sits far from 0 (lookahead 50000) but near 1, which sits near 0:
	// 3 could wake a blocked 1 at 21000, and 1 reach 0 at 22000, long
	// before 3's direct 70000. The engine's one-pass bound reads only
	// direct terms, so NewEngine refuses the matrix and names the
	// shortcut.
	clocks := []*Clock{{}, {}, {}, {}}
	la := [][]Duration{
		{0, 1000, 1000, 1000},
		{1000, 0, 1000, 1000},
		{1000, 1000, 0, 1000},
		{50_000, 1000, 1000, 0},
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "3→0 is 50000, above 3→1→0 at 2000") {
				t.Fatalf("NewEngine on a non-metric lookahead: panic %q, want one naming 3→0 and 3→1→0", msg)
			}
		}()
		NewEngine(clocks, la)
	}()
	// With 3→0 at the two-hop 2000, the same state — 1 and 2 blocked on
	// empty queues, 3 running at 20000 — bounds 0 at 22000 by 3's direct
	// term, which covers the chain through 1. If blocked nodes were
	// bounded by their frozen clocks the answer would be 1000.
	la[3][0] = 2000
	e := NewEngine(clocks, la)
	clocks[3].Advance(20_000)
	e.GateBegin()
	e.GateRecvWait(1)
	e.GateRecvWait(2)
	e.GateEnd()
	if got := e.Horizon(0); got != 22_000 {
		t.Fatalf("Horizon = %d, want 22000", got)
	}
}

func TestEngineHorizonEvaluationAllocatesNothing(t *testing.T) {
	e, clocks := engineN(64, 1000)
	for i, c := range clocks {
		c.Advance(Duration(1000 * i))
	}
	e.SetQueueMin(func(node int) (Time, bool) { return Time(500 * node), true })
	e.GateBegin()
	for p := 2; p < 64; p += 2 {
		e.GateRecvWait(p)
	}
	e.GateEnd()
	e.Horizon(0) // warm
	if n := testing.AllocsPerRun(100, func() { e.Horizon(0) }); n != 0 {
		t.Fatalf("Horizon allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { safe(e, 0, 1<<40) }); n != 0 {
		t.Fatalf("GateSafe allocates %v per run, want 0", n)
	}
}
