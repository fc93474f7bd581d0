package simnet

import (
	"sync/atomic"
	"testing"
	"time"

	"hamster/internal/machine"
	"hamster/internal/vclock"
)

func testGatedNet(nodes int) (*Network, []*vclock.Clock) {
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
	n := New(link, clocks)
	n.EnableGate()
	return n, clocks
}

func TestGatedRecvWaitsForHorizon(t *testing.T) {
	n, clocks := testGatedNet(2)
	n.Send(0, 1, UserKindBase, 7, []byte("hello"))
	// Arrival is 1150; node 0's clock is only 100 and its lookahead is
	// 1000, so it could still produce an arrival at 1100 < 1150: the
	// receiver must block.
	got := make(chan *Message, 1)
	go func() { got <- n.Recv(1, AnyKind, nil) }()
	select {
	case m := <-got:
		t.Fatalf("Recv delivered %+v before the horizon cleared", m)
	case <-time.After(20 * time.Millisecond):
	}
	// Advancing the sender past arrival-lookahead makes delivery safe;
	// the engine's liveness ticker picks the clock movement up without a
	// send kick.
	clocks[0].Advance(5000)
	select {
	case m := <-got:
		if m == nil || m.Tag != 7 {
			t.Fatalf("Recv = %+v, want tag 7", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after the horizon cleared")
	}
}

func TestGatedTryRecvPollsHorizon(t *testing.T) {
	n, clocks := testGatedNet(2)
	n.Send(0, 1, UserKindBase, 3, []byte("xx"))
	if m := n.TryRecv(1, AnyKind, nil); m != nil {
		t.Fatalf("TryRecv delivered %+v inside the horizon", m)
	}
	clocks[0].Advance(5000)
	if m := n.TryRecv(1, AnyKind, nil); m == nil || m.Tag != 3 {
		t.Fatalf("TryRecv = %+v after the horizon cleared, want tag 3", m)
	}
}

func TestGatedRecvPicksEarliestOnceSafe(t *testing.T) {
	n, clocks := testGatedNet(3)
	clocks[2].Advance(10_000)
	n.Send(2, 1, UserKindBase, 2, []byte{2}) // arrives ~11120
	n.Send(0, 1, UserKindBase, 1, []byte{1}) // arrives ~1110
	clocks[0].Advance(50_000)
	clocks[2].Advance(50_000)
	first := n.Recv(1, AnyKind, nil)
	second := n.Recv(1, AnyKind, nil)
	if first.Tag != 1 || second.Tag != 2 {
		t.Fatalf("gated delivery order: got tags %d, %d", first.Tag, second.Tag)
	}
}

func TestGatedCloseWaivesGate(t *testing.T) {
	n, _ := testGatedNet(2)
	n.Send(0, 1, UserKindBase, 9, []byte("abc"))
	got := make(chan *Message, 1)
	go func() { got <- n.Recv(1, AnyKind, nil) }()
	time.Sleep(5 * time.Millisecond)
	n.Close()
	select {
	case m := <-got:
		// Teardown delivers the queued message even though its horizon
		// never cleared — determinism ends where the simulation does.
		if m == nil || m.Tag != 9 {
			t.Fatalf("Recv at close = %+v, want the queued tag-9 message", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the gated receiver blocked")
	}
}

// TestGatedTokenRing runs a token around a ring with every node blocked
// in a gated Recv except the holder — the shape where naive conservative
// gating deadlocks (everyone's clock is frozen). The engine's activation
// bound must see through the blocked chain. The final clocks must equal
// the ungated run's exactly.
func TestGatedTokenRing(t *testing.T) {
	const nodes, rounds = 8, 25
	run := func(gated bool) []vclock.Time {
		clocks := make([]*vclock.Clock, nodes)
		for i := range clocks {
			clocks[i] = &vclock.Clock{}
		}
		link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
		n := New(link, clocks)
		if gated {
			n.EnableGate()
		}
		done := make(chan struct{})
		for id := 0; id < nodes; id++ {
			go func(id NodeID) {
				defer func() { done <- struct{}{} }()
				// A finished node must leave the horizon or the last
				// token could never be delivered (see Engine.SetRetired).
				defer n.SetNodeRetired(id, true)
				c := clocks[id]
				for r := 0; r < rounds; r++ {
					if !(r == 0 && id == 0) {
						if m := n.Recv(id, UserKindBase, nil); m == nil {
							t.Error("ring receiver saw close")
							return
						} else {
							m.Free()
						}
					}
					c.Advance(vclock.Duration(500 * (int(id) + 1))) // unequal work
					if r == rounds-1 && int(id) == nodes-1 {
						return // token retired
					}
					n.Send(id, (id+1)%nodes, UserKindBase, uint32(r), []byte{byte(r)})
				}
			}(NodeID(id))
		}
		for i := 0; i < nodes; i++ {
			<-done
		}
		n.Close()
		out := make([]vclock.Time, nodes)
		for i, c := range clocks {
			out[i] = c.Now()
		}
		return out
	}
	seq := run(false)
	par := run(true)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("node %d: gated clock %d != ungated %d", i, par[i], seq[i])
		}
	}
}

// TestGatedSendWakesOnlyWhomItUnblocks runs the token ring at 64 nodes
// and counts wake-ups: a send may wake its receiver and whoever the
// sender's progress made safe, never every parked receiver, so the ring
// averages at most two wake-ups per delivered message where waking
// everyone would cost about one per parked node.
func TestGatedSendWakesOnlyWhomItUnblocks(t *testing.T) {
	const nodes, rounds = 64, 10
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
	n := New(link, clocks)
	n.EnableGate()
	wakes := countGateWakes(n)
	var delivered atomic.Int64
	done := make(chan struct{})
	for id := 0; id < nodes; id++ {
		go func(id NodeID) {
			defer func() { done <- struct{}{} }()
			defer n.SetNodeRetired(id, true)
			for r := 0; r < rounds; r++ {
				if !(r == 0 && id == 0) {
					m := n.Recv(id, UserKindBase, nil)
					if m == nil {
						t.Error("ring receiver saw close")
						return
					}
					m.Free()
					delivered.Add(1)
				}
				clocks[id].Advance(vclock.Duration(500 * (int(id) + 1)))
				if r == rounds-1 && int(id) == nodes-1 {
					return // token retired
				}
				n.Send(id, (id+1)%nodes, UserKindBase, uint32(r), []byte{byte(r)})
			}
		}(NodeID(id))
	}
	for i := 0; i < nodes; i++ {
		<-done
	}
	n.Close()
	if got, want := delivered.Load(), int64(nodes*rounds-1); got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
	perMsg := float64(wakes.Load()) / float64(delivered.Load())
	t.Logf("%d wake-ups for %d messages: %.2f per message", wakes.Load(), delivered.Load(), perMsg)
	if perMsg > 2 {
		t.Fatalf("%.2f wake-ups per delivered message, want at most 2", perMsg)
	}
}

// TestGatedRecvTakesTagsOutOfArrivalOrder has a receiver ask for the
// later of two queued tags first, with both peers blocked in receives.
// The earlier message it skips keeps the published table from proving
// the later one safe, though nothing can arrive before it: the gated
// receive must decide exactly and deliver both, in the order asked.
func TestGatedRecvTakesTagsOutOfArrivalOrder(t *testing.T) {
	n, clocks := testGatedNet(3)
	defer n.Close()
	tagged := func(tag uint32) func(*Message) bool {
		return func(m *Message) bool { return m.Tag == tag }
	}
	n.Send(1, 0, UserKindBase, 1, []byte{1})
	clocks[1].Advance(4000)
	n.Send(1, 0, UserKindBase, 2, []byte{2})
	for _, p := range []NodeID{1, 2} {
		go n.Recv(p, UserKindBase, nil) // returns nil at Close
	}
	got := make(chan uint32, 2)
	go func() {
		for _, tag := range []uint32{2, 1} {
			if m := n.Recv(0, UserKindBase, tagged(tag)); m != nil {
				got <- m.Tag
				m.Free()
			}
		}
	}()
	for _, want := range []uint32{2, 1} {
		select {
		case tag := <-got:
			if tag != want {
				t.Fatalf("received tag %d, want %d", tag, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("tag %d not delivered with both peers blocked in receives", want)
		}
	}
}

// TestEnableGateAcceptsEveryPreset builds the gate over every topology
// preset at 8, 64 and 256 nodes: each lookahead matrix must obey the
// triangle inequality NewEngine checks (base latency plus a hop penalty
// on a rack ⊂ pod hierarchy), and an idle cluster's horizon at node 0 is
// its nearest peer's lookahead, the bare link latency of a rack-mate.
func TestEnableGateAcceptsEveryPreset(t *testing.T) {
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
	for _, name := range TopologyNames() {
		topo, err := TopologyPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{8, 64, 256} {
			clocks := make([]*vclock.Clock, nodes)
			for i := range clocks {
				clocks[i] = &vclock.Clock{}
			}
			n := NewTopo(link, clocks, topo)
			if h := n.EnableGate().Horizon(0); h != vclock.Time(link.LatencyNs) {
				t.Errorf("%s at %d nodes: idle horizon %d, want %d", name, nodes, h, link.LatencyNs)
			}
			n.Close()
		}
	}
}
