package simnet

import (
	"sync"
	"testing"

	"hamster/internal/machine"
	"hamster/internal/vclock"
)

func testNet(nodes int) (*Network, []*vclock.Clock) {
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
	return New(link, clocks), clocks
}

func TestSendRecvCostsAndPayload(t *testing.T) {
	n, clocks := testNet(2)
	payload := []byte("hello")
	n.Send(0, 1, UserKindBase, 7, payload)

	// Sender charged SendSW.
	if got := clocks[0].Now(); got != 100 {
		t.Fatalf("sender clock = %d, want 100", got)
	}
	m := n.Recv(1, AnyKind, nil)
	if m == nil {
		t.Fatal("Recv returned nil")
	}
	if string(m.Payload) != "hello" || m.From != 0 || m.To != 1 || m.Tag != 7 {
		t.Fatalf("bad message: %+v", m)
	}
	// Arrival = 100 (send) + 1000 (lat) + 5*10 (payload) = 1150.
	if m.ArriveAt != 1150 {
		t.Fatalf("ArriveAt = %d, want 1150", m.ArriveAt)
	}
	// Receiver clock = arrival + RecvSW = 1350.
	if got := clocks[1].Now(); got != 1350 {
		t.Fatalf("receiver clock = %d, want 1350", got)
	}
}

func TestRecvOrdersByArrivalTime(t *testing.T) {
	n, clocks := testNet(3)
	clocks[2].Advance(10_000) // node 2 sends later in virtual time
	n.Send(2, 1, UserKindBase, 2, []byte{2})
	n.Send(0, 1, UserKindBase, 1, []byte{1})
	first := n.Recv(1, AnyKind, nil)
	second := n.Recv(1, AnyKind, nil)
	if first.Tag != 1 || second.Tag != 2 {
		t.Fatalf("delivery order wrong: got tags %d, %d", first.Tag, second.Tag)
	}
}

func TestRecvFilter(t *testing.T) {
	n, _ := testNet(2)
	n.Send(0, 1, UserKindBase, 1, nil)
	n.Send(0, 1, UserKindBase+1, 2, nil)
	m := n.Recv(1, UserKindBase+1, nil)
	if m.Tag != 2 {
		t.Fatalf("filter returned tag %d, want 2", m.Tag)
	}
	if n.pending(1) != 1 {
		t.Fatalf("pending = %d, want 1", n.pending(1))
	}
}

func TestTryRecv(t *testing.T) {
	n, _ := testNet(2)
	if m := n.TryRecv(1, AnyKind, nil); m != nil {
		t.Fatal("TryRecv on empty queue must return nil")
	}
	n.Send(0, 1, UserKindBase, 9, nil)
	if m := n.TryRecv(1, AnyKind, nil); m == nil || m.Tag != 9 {
		t.Fatalf("TryRecv = %+v, want tag 9", m)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	n, _ := testNet(2)
	got := make(chan *Message)
	go func() { got <- n.Recv(1, AnyKind, nil) }()
	n.Send(0, 1, UserKindBase, 42, nil)
	if m := <-got; m.Tag != 42 {
		t.Fatalf("blocked Recv got tag %d, want 42", m.Tag)
	}
}

func TestBroadcast(t *testing.T) {
	n, _ := testNet(4)
	n.Broadcast(0, UserKindBase, 5, []byte("x"))
	for id := 1; id < 4; id++ {
		m := n.Recv(NodeID(id), AnyKind, nil)
		if m.Tag != 5 || m.From != 0 {
			t.Fatalf("node %d got %+v", id, m)
		}
	}
	if n.pending(0) != 0 {
		t.Fatal("broadcast must not self-deliver")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n, _ := testNet(2)
	done := make(chan *Message)
	go func() { done <- n.Recv(1, AnyKind, nil) }()
	n.Close()
	if m := <-done; m != nil {
		t.Fatalf("Recv after Close = %+v, want nil", m)
	}
}

func TestTrafficStats(t *testing.T) {
	n, _ := testNet(2)
	n.Send(0, 1, UserKindBase, 0, make([]byte, 100))
	n.Send(1, 0, UserKindBase, 0, make([]byte, 50))
	msgs, bytes := n.TotalTraffic()
	if msgs != 2 || bytes != 150 {
		t.Fatalf("traffic = %d msgs / %d bytes, want 2/150", msgs, bytes)
	}
}

func TestInvalidNodePanics(t *testing.T) {
	n, _ := testNet(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid node id")
		}
	}()
	n.Send(0, 5, UserKindBase, 0, nil)
}

func TestCausality(t *testing.T) {
	// A receiver can never observe a message "before" it was sent: after
	// Recv, receiver clock >= sender's clock at send time + latency.
	n, clocks := testNet(2)
	clocks[0].Advance(500_000)
	n.Send(0, 1, UserKindBase, 0, nil)
	sendT := clocks[0].Now()
	n.Recv(1, AnyKind, nil)
	if clocks[1].Now() < sendT {
		t.Fatalf("causality violated: recv at %d < send at %d", clocks[1].Now(), sendT)
	}
}

func TestFaultInjectionDuplicates(t *testing.T) {
	n, _ := testNet(2)
	n.SetFaults(FaultPlan{DuplicateProb: 1.0, Seed: 1})
	n.Send(0, 1, UserKindBase, 3, nil)
	a := n.Recv(1, AnyKind, nil)
	b := n.Recv(1, AnyKind, nil)
	if a == nil || b == nil || a.Tag != 3 || b.Tag != 3 {
		t.Fatal("expected duplicated delivery")
	}
}

func TestFaultInjectionReorderStillDeliversAll(t *testing.T) {
	n, _ := testNet(2)
	n.SetFaults(FaultPlan{ReorderProb: 1.0, Seed: 42})
	const total = 20
	for i := 0; i < total; i++ {
		n.Send(0, 1, UserKindBase, uint32(i), nil)
	}
	seen := map[uint32]bool{}
	for i := 0; i < total; i++ {
		m := n.Recv(1, AnyKind, nil)
		seen[m.Tag] = true
	}
	if len(seen) != total {
		t.Fatalf("lost messages under reorder: got %d unique, want %d", len(seen), total)
	}
}

func TestConcurrentSendersOneReceiver(t *testing.T) {
	n, _ := testNet(5)
	const per = 50
	var wg sync.WaitGroup
	for s := 1; s < 5; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send(NodeID(s), 0, UserKindBase, uint32(s), nil)
			}
		}(s)
	}
	count := 0
	for count < 4*per {
		if m := n.Recv(0, AnyKind, nil); m == nil {
			t.Fatal("unexpected nil from Recv")
		}
		count++
	}
	wg.Wait()
	if n.pending(0) != 0 {
		t.Fatalf("leftover messages: %d", n.pending(0))
	}
}

func BenchmarkSendRecv(b *testing.B) {
	n, _ := testNet(2)
	payload := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		n.Send(0, 1, UserKindBase, 0, payload)
		n.Recv(1, AnyKind, nil)
	}
}

// pending reports how many messages are queued at a node.
func (n *Network) pending(id NodeID) int {
	n.checkID(id)
	ep := n.nodes[id]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.pending
}
