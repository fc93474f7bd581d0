package ivy

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hamster/internal/memsim"
)

// The lock-free read's contract: a window hit may skip n.mu, but every
// execution must stay sequentially consistent. The hammers below run the
// two classic shapes on two pages with free-running nodes, so window hits
// race with invalidations on every schedule the host offers; run them
// under -race.

const hammerRounds = 100_000

// twoPages allocates X and Y on separate pages homed at node 0.
func twoPages(t *testing.T, d *DSM) (x, y memsim.Addr) {
	t.Helper()
	r, err := d.Alloc(2*memsim.PageSize, "xy", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r.Base, r.Base + memsim.PageSize
}

// TestHammerMessagePassing: the writer stores X then Y, the reader loads
// Y then X; it must never see a new Y with an older X.
func TestHammerMessagePassing(t *testing.T) {
	d := newDSM(t, 2)
	x, y := twoPages(t, d)
	var wg sync.WaitGroup
	var written atomic.Bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer written.Store(true)
		for i := int64(1); i <= hammerRounds; i++ {
			d.WriteI64(0, x, i)
			d.WriteI64(0, y, i)
			// The owner's own lock-free reads, racing with the reader's
			// fetches; they also leave n.mu free long enough for those
			// fetches to get in every few rounds instead of every few
			// thousand.
			for k := 0; k < 16; k++ {
				if got := d.ReadI64(0, x); got != i {
					t.Errorf("owner stored X=%d and read back %d", i, got)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			last := written.Load() // loads after this see every store
			gotY := d.ReadI64(1, y)
			gotX := d.ReadI64(1, x)
			if gotX < gotY {
				t.Errorf("read Y=%d then X=%d: X's store is older than Y's", gotY, gotX)
				return
			}
			if last {
				if gotY != hammerRounds {
					t.Errorf("read Y=%d after the last store of %d", gotY, hammerRounds)
				}
				return
			}
		}
	}()
	wg.Wait()
}

// TestHammerStoreBuffering: node 0 stores X=i then loads Y, node 1 stores
// Y=j then loads X. Under sequential consistency, if round i of node 0
// missed Y=j then round j of node 1 came later and must see X>=i.
func TestHammerStoreBuffering(t *testing.T) {
	d := newDSM(t, 2)
	x, y := twoPages(t, d)
	sawY := make([]int64, hammerRounds+1) // sawY[i]: node 0's load in round i
	sawX := make([]int64, hammerRounds+1) // sawX[j]: node 1's load in round j
	var wg sync.WaitGroup
	wg.Add(2)
	// side runs one node: store mine=r, load theirs, then read mine back a
	// few times lock-free so the other node's fetches and invalidations
	// land between rounds instead of queueing behind n.mu.
	side := func(node int, mine, theirs memsim.Addr, saw []int64) {
		defer wg.Done()
		for r := int64(1); r <= hammerRounds; r++ {
			d.WriteI64(node, mine, r)
			saw[r] = d.ReadI64(node, theirs)
			for k := 0; k < 16; k++ {
				if got := d.ReadI64(node, mine); got != r {
					t.Errorf("node %d stored %d and read back %d", node, r, got)
					return
				}
			}
		}
	}
	go side(0, x, y, sawY)
	go side(1, y, x, sawX)
	wg.Wait()
	for i := int64(1); i <= hammerRounds; i++ {
		// Y's values only grow, so the first store node 0 missed in round
		// i is sawY[i]+1; later ones read X no earlier than that one did.
		if j := sawY[i] + 1; j <= hammerRounds && sawX[j] < i {
			t.Fatalf("round %d of node 0 stored X then read Y=%d; round %d of node 1 stored Y then read X=%d: both loads passed both stores",
				i, sawY[i], j, sawX[j])
		}
	}
}

// TestOwnUpgradeRefreshesWindow: a node that read a page and then writes
// it receives ownership in a new buffer, with no revocation in between;
// its window must follow the buffer.
func TestOwnUpgradeRefreshesWindow(t *testing.T) {
	d := newDSM(t, 2)
	x, _ := twoPages(t, d)
	d.WriteI64(0, x, 1)
	for node := 0; node < 2; node++ { // owned buffer and read copy enter the windows
		if got := d.ReadI64(node, x); got != 1 {
			t.Fatalf("node %d reads %d, want 1", node, got)
		}
	}
	d.WriteI64(1, x, 2) // upgrade: ownership arrives in a fresh buffer
	if got := d.ReadI64(1, x); got != 2 {
		t.Fatalf("read after own upgrade = %d, want 2 (window still serves the old read copy)", got)
	}
	if got := d.ReadI64(0, x); got != 2 { // node 0 granted ownership away
		t.Fatalf("old owner reads %d, want 2 (window still serves the granted-away buffer)", got)
	}
	d.WriteI64(1, x+8, 3) // owner write lands in the windowed buffer
	if got := d.ReadI64(1, x+8); got != 3 {
		t.Fatalf("owner read of its own write = %d", got)
	}
}

// TestSelfFaultAfterHandlerBootstrap: a remote request may bootstrap the
// home's page between the home's own frame check and its fault. The fault
// then finds itself the next hop with the page already owned and must
// return, not retry forever.
func TestSelfFaultAfterHandlerBootstrap(t *testing.T) {
	d := newDSM(t, 2)
	x, _ := twoPages(t, d)
	p := memsim.PageOf(x)
	n := d.nodes[0]
	n.mu.Lock()
	n.bootstrapOwned(p) // what node 1's kindReadPage handler does at the home
	n.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.readFault(p)
		n.writeFault(p)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fault on a page the node already owns never returned")
	}
	d.WriteI64(0, x, 9)
	if got := d.ReadI64(1, x); got != 9 {
		t.Fatalf("page unusable after the fault: read %d", got)
	}
}
