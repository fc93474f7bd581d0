package ivy

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"hamster/internal/consengine"
	"hamster/internal/memsim"
	"hamster/internal/platform"
)

func newDSM(t testing.TB, nodes int) *DSM {
	t.Helper()
	d, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestDeclaration(t *testing.T) {
	d := newDSM(t, 2)
	if d.DeclaredModel() != consengine.Sequential {
		t.Fatalf("DeclaredModel = %v", d.DeclaredModel())
	}
	if d.Kind() != platform.SWDSM {
		t.Fatalf("Kind = %v", d.Kind())
	}
	if c := d.Caps(); !c.PageCaching || c.ConsistencyModel != "sequential" {
		t.Fatalf("caps = %+v", c)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDSM(t, 2)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(0, r.Base, 7.5)
	if got := d.ReadF64(1, r.Base); got != 7.5 {
		t.Fatalf("remote read = %v", got)
	}
	d.WriteI64(1, r.Base+8, -3)
	if got := d.ReadI64(0, r.Base+8); got != -3 {
		t.Fatalf("int read = %v", got)
	}
	buf := []byte{1, 2, 3, 4, 5}
	d.WriteBytes(0, r.Base+100, buf)
	got := make([]byte, 5)
	d.ReadBytes(1, r.Base+100, got)
	if string(got) != string(buf) {
		t.Fatalf("bytes = %v", got)
	}
}

// TestOwnershipMigration: a write from a non-owner transfers ownership
// (counted as a HomeMigration arrival) and the old owner's copy is gone.
func TestOwnershipMigration(t *testing.T) {
	d := newDSM(t, 3)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(0, r.Base, 1) // home bootstraps as owner
	d.WriteF64(1, r.Base, 2) // ownership migrates 0 -> 1
	d.WriteF64(2, r.Base, 3) // and 1 -> 2, chased through node 0's hint
	if got := d.NodeStats(1).HomeMigrations; got != 1 {
		t.Fatalf("node 1 ownership arrivals = %d", got)
	}
	if got := d.NodeStats(2).HomeMigrations; got != 1 {
		t.Fatalf("node 2 ownership arrivals = %d", got)
	}
	p := memsim.PageOf(r.Base)
	for _, id := range []int{0, 1} {
		n := d.nodes[id]
		n.mu.Lock()
		e := n.pages[p]
		if e == nil || e.state == pOwned {
			n.mu.Unlock()
			t.Fatalf("node %d still thinks it owns page %d", id, p)
		}
		n.mu.Unlock()
	}
	// The final value is visible everywhere, including via stale chains.
	for id := 0; id < 3; id++ {
		if got := d.ReadF64(id, r.Base); got != 3 {
			t.Fatalf("node %d reads %v", id, got)
		}
	}
}

// TestWriteInvalidatesReaders: read copies are synchronously destroyed
// before a write performs, and the next read refetches the new value.
func TestWriteInvalidatesReaders(t *testing.T) {
	d := newDSM(t, 4)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(0, r.Base, 1)
	for id := 1; id < 4; id++ {
		if got := d.ReadF64(id, r.Base); got != 1 {
			t.Fatalf("node %d initial read = %v", id, got)
		}
	}
	d.WriteF64(0, r.Base, 2) // owner write: must invalidate the 3 readers
	var invals uint64
	for id := 1; id < 4; id++ {
		if got := d.ReadF64(id, r.Base); got != 2 {
			t.Fatalf("node %d stale read = %v", id, got)
		}
		invals += d.NodeStats(id).Invalidations
	}
	if invals != 3 {
		t.Fatalf("invalidations = %d, want 3", invals)
	}
	// The readers' refetches registered them again; a non-owner write now
	// inherits that copyset and empties it.
	d.WriteF64(1, r.Base, 3)
	for id := 0; id < 4; id++ {
		if got := d.ReadF64(id, r.Base); got != 3 {
			t.Fatalf("node %d after migration reads %v", id, got)
		}
	}
}

// TestLockedCounter: the canonical mutual-exclusion workload, engine
// locks plus coherent memory, across concurrent goroutine nodes.
func TestLockedCounter(t *testing.T) {
	const nodes, rounds = 4, 25
	d := newDSM(t, nodes)
	r, err := d.Alloc(memsim.PageSize, "ctr", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	lk := d.NewLock()
	var wg sync.WaitGroup
	for id := 0; id < nodes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d.Acquire(id, lk)
				d.WriteI64(id, r.Base, d.ReadI64(id, r.Base)+1)
				d.Release(id, lk)
			}
			d.Barrier(id)
		}(id)
	}
	wg.Wait()
	if got := d.ReadI64(0, r.Base); got != nodes*rounds {
		t.Fatalf("counter = %d, want %d", got, nodes*rounds)
	}
}

// TestConcurrentWriterStress: many nodes hammer the same pages with no
// synchronization at all. Sequential consistency means the protocol must
// stay coherent (single owner, no lost invalidations, no deadlock) under
// every schedule; the final owner's value must be one of the written
// values and every node must agree on it.
func TestConcurrentWriterStress(t *testing.T) {
	const nodes = 4
	for iter := 0; iter < 8; iter++ {
		d, err := New(Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Alloc(2*memsim.PageSize, "war", memsim.Block, -1)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for id := 0; id < nodes; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					a := r.Base + memsim.Addr((i%2)*memsim.PageSize)
					d.WriteI64(id, a, int64(id*1000+i))
					d.ReadI64(id, a+8)
				}
				d.Barrier(id)
			}(id)
		}
		wg.Wait()
		for off := 0; off < 2; off++ {
			a := r.Base + memsim.Addr(off*memsim.PageSize)
			want := d.ReadI64(0, a)
			for id := 1; id < nodes; id++ {
				if got := d.ReadI64(id, a); got != want {
					t.Fatalf("iter %d: node %d sees %d, node 0 sees %d", iter, id, got, want)
				}
			}
		}
		d.Close()
	}
}

// TestBlockWordEquivalence: block accessors must produce the same memory
// contents and the same modeled virtual time as the word loop.
func TestBlockWordEquivalence(t *testing.T) {
	run := func(block bool) (sum float64, ns int64) {
		d, err := New(Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		const words = 1024 // spans several pages
		r, err := d.Alloc(words*8, "v", memsim.Block, -1)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, words)
		for i := range src {
			src[i] = float64(i) * 0.5
		}
		if block {
			d.WriteF64Block(0, r.Base, src)
		} else {
			for i, v := range src {
				d.WriteF64(0, r.Base+memsim.Addr(i*8), v)
			}
		}
		dst := make([]float64, words)
		if block {
			d.ReadF64Block(1, r.Base, dst)
		} else {
			for i := range dst {
				dst[i] = d.ReadF64(1, r.Base+memsim.Addr(i*8))
			}
		}
		for _, v := range dst {
			sum += v
		}
		return sum, int64(d.Clock(0).Now()) + int64(d.Clock(1).Now())
	}
	bSum, bNs := run(true)
	wSum, wNs := run(false)
	if bSum != wSum {
		t.Fatalf("checksum: block %v vs word %v", bSum, wSum)
	}
	if bNs != wNs {
		t.Fatalf("virtual time: block %d vs word %d", bNs, wNs)
	}
}

func TestTryAcquireAndFence(t *testing.T) {
	d := newDSM(t, 2)
	lk := d.NewLock()
	if !d.TryAcquire(0, lk) {
		t.Fatal("uncontended TryAcquire failed")
	}
	if d.TryAcquire(1, lk) {
		t.Fatal("contended TryAcquire succeeded")
	}
	d.Release(0, lk)
	d.Fence(0) // no-op, must not panic or deadlock
	if !d.TryAcquire(1, lk) {
		t.Fatal("freed TryAcquire failed")
	}
	d.Release(1, lk)
}

// TestVirtualTimeAdvances: faults, transfers, and invalidations all carry
// modeled costs, so a communicating run must accumulate virtual time on
// both sides (including handler steals at the serving node).
func TestVirtualTimeAdvances(t *testing.T) {
	d := newDSM(t, 2)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(0, r.Base, 1)
	if d.Clock(0).Now() == 0 {
		t.Fatal("writer clock did not advance")
	}
	if d.Clock(1).Now() == 0 {
		t.Fatal("serving node's handler steal did not advance its clock")
	}
	if d.NodeStats(0).ProtocolMsgs == 0 {
		t.Fatal("no protocol messages counted")
	}
	if d.NodeStats(0).PageFaults != 1 {
		t.Fatalf("page faults = %d", d.NodeStats(0).PageFaults)
	}
}

// TestStaleHintCycleResolves: probable-owner hints learned at different
// times can point two non-owners at each other. Node 0 asks node 1, whose
// hint names node 0 — a reply the chase ignores — so without a way out
// node 0 would ask node 1 forever while node 2 owns the page.
func TestStaleHintCycleResolves(t *testing.T) {
	d := newDSM(t, 3)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(2, r.Base, 1) // node 2, the home, becomes the owner
	p := memsim.PageOf(r.Base)
	for id, hint := range []int{1, 0} {
		n := d.nodes[id]
		n.mu.Lock()
		e := n.entry(p)
		e.state, e.hint = pHint, hint
		n.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.WriteF64(0, r.Base, 5)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("node 0's write fault is still chasing the 0 <-> 1 hint cycle")
	}
	if got := d.ReadF64(1, r.Base); got != 5 {
		t.Fatalf("node 1 reads %v after node 0's write, want 5", got)
	}
}

// TestStrandedRequesterWakesOnPoison: a requester that finds the page's
// owner mid-way through an invalidation round parks until the round
// clears the pending flag. A writer that panics mid-round never clears
// it, so the failure's poison must wake the requester instead.
func TestStrandedRequesterWakesOnPoison(t *testing.T) {
	d := newDSM(t, 2)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := memsim.PageOf(r.Base)
	owner := d.nodes[0]
	owner.mu.Lock()
	owner.bootstrapOwned(p).pending = true
	owner.mu.Unlock()

	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		d.layer.Call(1, 0, kindReadPage, binary.LittleEndian.AppendUint64(nil, uint64(p)))
	}()
	select {
	case r := <-got:
		t.Fatalf("the request returned (%v) while the round was pending", r)
	case <-time.After(20 * time.Millisecond):
	}
	d.Clocks[0].Poison("node 0 failed: boom")
	select {
	case r := <-got:
		if msg, _ := r.(string); !strings.Contains(msg, "node 0 failed: boom") {
			t.Fatalf("the stranded requester panicked with %v, want the failure", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stranded requester is still parked 5 s after the poison")
	}
}
