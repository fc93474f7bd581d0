package simnet

import (
	"testing"

	"hamster/internal/vclock"
)

// An installed plan whose fault fields are all zero must leave the
// network byte- and virtual-time-identical to running with no plan at
// all: the cost model is untouched and no draw is ever consumed.
func TestZeroFaultPlanIdentity(t *testing.T) {
	type obs struct {
		arrivals []vclock.Time
		payloads []byte
		sender   vclock.Time
		receiver vclock.Time
	}
	run := func(install bool) obs {
		n, clocks := testNet(2)
		if install {
			n.SetFaults(FaultPlan{Seed: 12345}) // nonzero seed, zero faults
		}
		var o obs
		for i := 0; i < 50; i++ {
			n.Send(0, 1, UserKindBase, uint32(i), []byte{byte(i), byte(i >> 4)})
			m := n.Recv(1, AnyKind, nil)
			o.arrivals = append(o.arrivals, m.ArriveAt)
			o.payloads = append(o.payloads, m.Payload...)
		}
		o.sender, o.receiver = clocks[0].Now(), clocks[1].Now()
		if n.Drops() != 0 {
			t.Fatalf("zero plan dropped %d messages", n.Drops())
		}
		return o
	}
	base, planned := run(false), run(true)
	if base.sender != planned.sender || base.receiver != planned.receiver {
		t.Fatalf("zero plan perturbed clocks: (%d,%d) vs (%d,%d)",
			base.sender, base.receiver, planned.sender, planned.receiver)
	}
	for i := range base.arrivals {
		if base.arrivals[i] != planned.arrivals[i] {
			t.Fatalf("message %d: arrival %d with plan vs %d without",
				i, planned.arrivals[i], base.arrivals[i])
		}
	}
	if string(base.payloads) != string(planned.payloads) {
		t.Fatal("zero plan altered payload bytes")
	}
}

// Drop decisions come from the seeded per-link streams: same seed, same
// losses; different seed, different losses.
func TestDropDeterministic(t *testing.T) {
	const msgs = 300
	run := func(seed int64) (delivered map[uint32]bool, drops uint64) {
		n, _ := testNet(2)
		n.SetFaults(FaultPlan{DropProb: 0.3, Seed: seed})
		for i := 0; i < msgs; i++ {
			n.Send(0, 1, UserKindBase, uint32(i), []byte{1})
		}
		delivered = make(map[uint32]bool)
		for m := n.TryRecv(1, AnyKind, nil); m != nil; m = n.TryRecv(1, AnyKind, nil) {
			delivered[m.Tag] = true
		}
		return delivered, n.Drops()
	}
	a, dropsA := run(7)
	b, dropsB := run(7)
	if dropsA == 0 || dropsA == msgs {
		t.Fatalf("DropProb 0.3 dropped %d of %d", dropsA, msgs)
	}
	if uint64(len(a))+dropsA != msgs {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(a), dropsA, msgs)
	}
	if dropsA != dropsB || len(a) != len(b) {
		t.Fatalf("same seed: %d/%d drops, %d/%d delivered", dropsA, dropsB, len(a), len(b))
	}
	for tag := range a {
		if !b[tag] {
			t.Fatalf("same seed delivered different sets (tag %d)", tag)
		}
	}
	c, _ := run(8)
	same := len(a) == len(c)
	if same {
		for tag := range a {
			if !c[tag] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss patterns")
	}
}

// A partition window severs the pair for [From, Until) of virtual time
// and then heals.
func TestPartitionWindow(t *testing.T) {
	n, clocks := testNet(3)
	n.SetFaults(FaultPlan{
		Partitions: []Partition{{A: 0, B: 1, From: 2000, Until: 5000}},
		Seed:       1,
	})
	// Before the window (sendT = 100 after send software): delivered.
	n.Send(0, 1, UserKindBase, 0, []byte{0})
	// Inside the window: lost, both directions.
	clocks[0].AdvanceCat(vclock.CatCompute, 3000)
	clocks[1].AdvanceCat(vclock.CatCompute, 3000)
	n.Send(0, 1, UserKindBase, 1, []byte{1})
	n.Send(1, 0, UserKindBase, 2, []byte{2})
	// An uninvolved pair is unaffected.
	n.Send(0, 2, UserKindBase, 3, []byte{3})
	// After it heals: delivered.
	clocks[0].AdvanceCat(vclock.CatCompute, 3000)
	n.Send(0, 1, UserKindBase, 4, []byte{4})

	if got := n.Drops(); got != 2 {
		t.Fatalf("drops = %d, want 2 (the in-window sends)", got)
	}
	if got := n.pending(1); got != 2 {
		t.Fatalf("node 1 queued %d messages, want 2 (before + after window)", got)
	}
	if got := n.pending(2); got != 1 {
		t.Fatalf("node 2 queued %d messages, want 1", got)
	}
}

// A fail-stopped node loses every message from or to it at or after
// CrashAt; earlier traffic is untouched.
func TestCrashSchedule(t *testing.T) {
	n, clocks := testNet(3)
	n.SetFaults(FaultPlan{NodeFaults: []NodeFault{{Node: 1, CrashAt: 1000}}, Seed: 1})
	n.Send(0, 1, UserKindBase, 0, []byte{0}) // sendT = 100 < 1000: delivered
	clocks[0].AdvanceCat(vclock.CatCompute, 2000)
	clocks[1].AdvanceCat(vclock.CatCompute, 2000)
	n.Send(0, 1, UserKindBase, 1, []byte{1}) // to the dead node: lost
	n.Send(1, 2, UserKindBase, 2, []byte{2}) // from the dead node: lost
	n.Send(0, 2, UserKindBase, 3, []byte{3}) // bystanders keep talking

	if !n.fs.Load().crashed(1, clocks[1].Now()) {
		t.Fatal("node 1 should report crashed")
	}
	if n.fs.Load().crashed(1, 500) {
		t.Fatal("node 1 was alive before CrashAt")
	}
	if got := n.Drops(); got != 2 {
		t.Fatalf("drops = %d, want 2", got)
	}
	if n.pending(1) != 1 || n.pending(2) != 1 {
		t.Fatalf("pending = %d/%d, want 1/1", n.pending(1), n.pending(2))
	}
}

// SlowFactor scales only the per-message software costs of the degraded
// node — never the wire, never its peers.
func TestSlowFactorScalesSoftwareOnly(t *testing.T) {
	n, clocks := testNet(2)
	n.SetFaults(FaultPlan{NodeFaults: []NodeFault{{Node: 1, SlowFactor: 4}}, Seed: 1})
	if got := n.ScaledSW(1, 100); got != 400 {
		t.Fatalf("ScaledSW(slow node) = %d, want 400", got)
	}
	if got := n.ScaledSW(0, 100); got != 100 {
		t.Fatalf("ScaledSW(healthy node) = %d, want 100", got)
	}
	if f := n.fs.Load().slow[1]; f != 4 {
		t.Fatalf("slow factor = %v, want 4", f)
	}
	// Healthy sender: send software unscaled, wire unscaled.
	n.Send(0, 1, UserKindBase, 0, []byte{1})
	if got := clocks[0].Now(); got != 100 {
		t.Fatalf("sender clock = %d, want 100 (unscaled)", got)
	}
	m := n.Recv(1, AnyKind, nil)
	if m.ArriveAt != 100+1000+10 {
		t.Fatalf("arrival = %d, want 1110 (wire is never scaled)", m.ArriveAt)
	}
	// Slow receiver: RecvSW 200 × 4 past the arrival time.
	if got := clocks[1].Now(); got != m.ArriveAt+4*200 {
		t.Fatalf("receiver clock = %d, want %d", got, m.ArriveAt+4*200)
	}
}

func TestClosedFlag(t *testing.T) {
	n, _ := testNet(2)
	if n.Closed() {
		t.Fatal("fresh network reports closed")
	}
	n.Close()
	if !n.Closed() {
		t.Fatal("Close did not set the flag")
	}
}
