package conscheck

import (
	"strings"
	"testing"
	"testing/quick"

	"hamster/internal/memsim"
)

// Terse event builders for tests.
func acq(n, l int) Event { return Event{Node: n, Kind: Acquire, Lock: l} }
func rel(n, l int) Event { return Event{Node: n, Kind: Release, Lock: l} }
func rd(n int, a uint64) Event {
	return Event{Node: n, Kind: Read, Addr: memsim.Addr(a)}
}
func wr(n int, a uint64) Event {
	return Event{Node: n, Kind: Write, Addr: memsim.Addr(a)}
}
func bar(n int) Event { return Event{Node: n, Kind: Barrier} }

func TestLockProtectedIsDRF(t *testing.T) {
	events := []Event{
		acq(0, 1), wr(0, 0x100), rel(0, 1),
		acq(1, 1), rd(1, 0x100), wr(1, 0x100), rel(1, 1),
		acq(0, 1), rd(0, 0x100), rel(0, 1),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) != 0 {
		t.Fatalf("lock-protected trace flagged racy: %s", rep)
	}
	if len(rep.Lockset) != 0 {
		t.Fatalf("consistent lockset flagged: %v", rep.Lockset)
	}
}

func TestUnorderedWriteWriteRace(t *testing.T) {
	events := []Event{
		wr(0, 0x200),
		wr(1, 0x200),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) == 0 {
		t.Fatal("concurrent unordered writes not flagged")
	}
	r := rep.Races[0]
	if r.FirstNode == r.SecondNode {
		t.Fatalf("race nodes wrong: %+v", r)
	}
	if !strings.Contains(rep.String(), "race on") {
		t.Fatal("report missing race text")
	}
}

func TestReadWriteRace(t *testing.T) {
	events := []Event{
		rd(0, 0x300),
		wr(1, 0x300),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) == 0 {
		t.Fatal("unordered read/write not flagged")
	}
}

func TestBarrierOrdersAccesses(t *testing.T) {
	events := []Event{
		wr(0, 0x400),
		bar(0), bar(1),
		rd(1, 0x400), wr(1, 0x400),
		bar(0), bar(1),
		rd(0, 0x400),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) != 0 {
		t.Fatalf("barrier-separated accesses flagged racy: %s", rep)
	}
	if len(rep.Lockset) != 0 {
		t.Fatalf("barrier-separated writers flagged by lockset: %v", rep.Lockset)
	}
}

func TestDifferentLocksRace(t *testing.T) {
	// Writers under DIFFERENT locks do not synchronize with each other.
	events := []Event{
		acq(0, 1), wr(0, 0x500), rel(0, 1),
		acq(1, 2), wr(1, 0x500), rel(1, 2),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) == 0 {
		t.Fatal("different-lock writers not flagged")
	}
}

func TestLocksetWarningWithoutObservedRace(t *testing.T) {
	// Node 1 happens to acquire the same lock AFTER node 0's release of a
	// different critical section, creating incidental ordering through
	// lock 9 — but word 0x600 itself is written under inconsistent locks.
	events := []Event{
		acq(0, 9), acq(0, 1), wr(0, 0x600), rel(0, 1), rel(0, 9),
		acq(1, 9), acq(1, 2), wr(1, 0x600), rel(1, 2), rel(1, 9),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) != 0 {
		t.Fatalf("incidentally ordered writes flagged racy: %s", rep)
	}
	// Lockset: {9,1} ∩ {9,2} = {9} — consistent, so NO warning. Now drop
	// lock 9 from the second writer: lockset empties, warning fires.
	events2 := []Event{
		acq(0, 9), acq(0, 1), wr(0, 0x600), rel(0, 1), rel(0, 9),
		acq(1, 9), rel(1, 9), // ordering only
		acq(1, 2), wr(1, 0x600), rel(1, 2),
	}
	rep2 := Analyze(events2, 2)
	if len(rep2.Lockset) != 1 {
		t.Fatalf("expected one lockset warning, got %v", rep2.Lockset)
	}
	if !strings.Contains(rep2.Lockset[0].String(), "no consistent lock") {
		t.Fatal("warning text wrong")
	}
}

func TestFenceOrders(t *testing.T) {
	// Fences order in trace order (release+acquire on a virtual lock):
	// writer fences after writing, reader fences before reading.
	events := []Event{
		wr(0, 0x700),
		{Node: 0, Kind: Fence},
		{Node: 1, Kind: Fence},
		rd(1, 0x700),
	}
	rep := Analyze(events, 2)
	if len(rep.Races) != 0 {
		t.Fatalf("fence-ordered accesses flagged racy: %s", rep)
	}
}

func TestSameNodeNeverRaces(t *testing.T) {
	events := []Event{
		wr(0, 0x800), rd(0, 0x800), wr(0, 0x800),
	}
	rep := Analyze(events, 1)
	if len(rep.Races) != 0 {
		t.Fatal("single node cannot race with itself")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Read: "read", Write: "write", Acquire: "acquire",
		Release: "release", Barrier: "barrier", Fence: "fence", Kind(99): "?",
	} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
}

func TestVCProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x, y := newVC(n), newVC(n)
		for i := 0; i < n; i++ {
			x[i], y[i] = uint64(a[i]), uint64(b[i])
		}
		j := x.copyOf()
		j.joinFrom(y)
		// Join is an upper bound of both.
		return x.leq(j) && y.leq(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: lock-protected single-counter traces are always DRF no matter
// the interleaving of critical sections.
func TestLockDisciplineAlwaysDRFProperty(t *testing.T) {
	f := func(order []uint8) bool {
		const nodes = 3
		var events []Event
		for _, o := range order {
			n := int(o) % nodes
			events = append(events,
				acq(n, 7), rd(n, 0xA00), wr(n, 0xA00), rel(n, 7))
		}
		return len(Analyze(events, nodes).Races) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
