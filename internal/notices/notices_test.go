package notices

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hamster/internal/memsim"
)

func TestBoardTakeEmpty(t *testing.T) {
	b := NewBoard()
	if got := b.take(0); got != nil {
		t.Fatalf("Take on empty board = %v", got)
	}
}

func TestBoardAddForOthers(t *testing.T) {
	b := NewBoard()
	b.AddForOthers(1, 3, []memsim.PageID{10, 11})
	if got := b.take(1); got != nil {
		t.Fatalf("self must not receive notices, got %v", got)
	}
	for _, n := range []int{0, 2} {
		got := b.take(n)
		if len(got) != 2 || got[0] != 10 || got[1] != 11 {
			t.Fatalf("node %d notices = %v", n, got)
		}
		// Second take drains.
		if b.take(n) != nil {
			t.Fatal("Take must drain")
		}
	}
}

func TestBoardAccumulates(t *testing.T) {
	b := NewBoard()
	b.AddForOthers(0, 2, []memsim.PageID{1})
	b.AddForOthers(0, 2, []memsim.PageID{2})
	if b.pending(1) != 2 {
		t.Fatalf("pending = %d", b.pending(1))
	}
	got := b.take(1)
	if len(got) != 2 {
		t.Fatalf("notices = %v", got)
	}
}

func TestBoardEmptyAddIsNoop(t *testing.T) {
	b := NewBoard()
	b.AddForOthers(0, 4, nil)
	for n := 0; n < 4; n++ {
		if b.pending(n) != 0 {
			t.Fatal("empty add must not create entries")
		}
	}
}

func TestEpochExchange(t *testing.T) {
	e := NewEpochExchange(3)
	e.Deposit(0, 0, []memsim.PageID{1})
	e.Deposit(0, 1, []memsim.PageID{2, 3})
	e.Deposit(0, 2, nil)

	got := e.CollectOthers(0, 0, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("node 0 collected %v", got)
	}
	if got := e.CollectOthers(0, 1, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("node 1 collected %v", got)
	}
	e.CollectOthers(0, 2, nil)
	if e.liveEpochs() != 0 {
		t.Fatalf("epoch storage leaked: %d live", e.liveEpochs())
	}
}

func TestEpochExchangeUnknownEpoch(t *testing.T) {
	e := NewEpochExchange(2)
	if got := e.CollectOthers(99, 0, nil); got != nil {
		t.Fatalf("unknown epoch = %v", got)
	}
	dst := make([]memsim.PageID, 2, 8)
	dst[0], dst[1] = 5, 6
	got := e.CollectOthers(99, 0, dst)
	if len(got) != 2 || cap(got) != 8 || &got[0] != &dst[0] || got[0] != 5 || got[1] != 6 {
		t.Fatalf("unknown epoch changed dst: %v (len %d cap %d)", got, len(got), cap(got))
	}
}

// The union is appended after whatever dst already holds, depositors in
// node order whatever order they deposited in, the collector's own list
// left out: seeded fault replay depends on that order. The copies run
// outside the lock, so the collection count alone reclaims the epoch, at
// exactly the N-th collection.
func TestEpochExchangeNodeOrder(t *testing.T) {
	e := NewEpochExchange(4)
	e.Deposit(0, 3, []memsim.PageID{1, 2})
	e.Deposit(0, 2, []memsim.PageID{9, 4})
	e.Deposit(0, 0, []memsim.PageID{7})
	want := map[int][]memsim.PageID{
		0: {100, 9, 4, 1, 2},
		1: {100, 7, 9, 4, 1, 2},
		2: {100, 7, 1, 2},
		3: {100, 7, 9, 4},
	}
	for n := 0; n < 4; n++ {
		if live := e.liveEpochs(); live != 1 {
			t.Fatalf("after %d collections %d epochs live, want 1", n, live)
		}
		got := e.CollectOthers(0, n, []memsim.PageID{100})
		if !slices.Equal(got, want[n]) {
			t.Errorf("node %d collected %v, want %v", n, got, want[n])
		}
	}
	if live := e.liveEpochs(); live != 0 {
		t.Fatalf("epoch storage leaked: %d live after the last collection", live)
	}
}

// A collection into a buffer with room allocates nothing: the barrier
// passes each node's reusable scratch.
func TestEpochExchangeCollectZeroAlloc(t *testing.T) {
	const nodes = 256
	e := NewEpochExchange(nodes)
	e.Deposit(0, 0, []memsim.PageID{1, 2, 3})
	e.Deposit(0, 1, []memsim.PageID{4})
	buf := make([]memsim.PageID, 0, 8)
	node := 2
	allocs := testing.AllocsPerRun(100, func() {
		buf = e.CollectOthers(0, node, buf[:0])
		node++
	})
	if allocs != 0 || len(buf) != 4 {
		t.Fatalf("collection into a roomy buffer: %.2f allocs, %v collected", allocs, buf)
	}
}

func TestEpochExchangeOverlappingEpochs(t *testing.T) {
	// Nodes may be in adjacent epochs simultaneously (one node races
	// ahead to the next barrier).
	e := NewEpochExchange(2)
	e.Deposit(0, 0, []memsim.PageID{1})
	e.Deposit(0, 1, []memsim.PageID{2})
	got0 := e.CollectOthers(0, 0, nil)
	// Node 0 proceeds to epoch 1 before node 1 collects epoch 0.
	e.Deposit(1, 0, []memsim.PageID{3})
	got1 := e.CollectOthers(0, 1, nil)
	if len(got0) != 1 || got0[0] != 2 || len(got1) != 1 || got1[0] != 1 {
		t.Fatalf("epoch 0 exchange wrong: %v %v", got0, got1)
	}
	if e.liveEpochs() != 1 {
		t.Fatalf("live epochs = %d, want 1 (epoch 1 pending)", e.liveEpochs())
	}
}

// Property: notices deposited by others are exactly what a node collects
// (as a multiset), for any distribution of pages.
func TestEpochExchangeProperty(t *testing.T) {
	f := func(pagesPerNode [][]uint32) bool {
		nodes := len(pagesPerNode)
		if nodes == 0 {
			return true
		}
		e := NewEpochExchange(nodes)
		want := make(map[int]map[memsim.PageID]int)
		for n := range pagesPerNode {
			want[n] = make(map[memsim.PageID]int)
		}
		for n, raw := range pagesPerNode {
			pages := make([]memsim.PageID, len(raw))
			for i, v := range raw {
				pages[i] = memsim.PageID(v)
				for m := 0; m < nodes; m++ {
					if m != n {
						want[m][memsim.PageID(v)]++
					}
				}
			}
			e.Deposit(0, n, pages)
		}
		for n := 0; n < nodes; n++ {
			got := make(map[memsim.PageID]int)
			for _, p := range e.CollectOthers(0, n, nil) {
				got[p]++
			}
			if len(got) != len(want[n]) {
				return false
			}
			for p, c := range want[n] {
				if got[p] != c {
					return false
				}
			}
		}
		return e.liveEpochs() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Nodes deposit, meet, and collect concurrently into their own reused
// buffers, a fast node depositing the next epoch while slow ones still
// copy this one (run under -race: collection reads outside the lock).
func TestEpochExchangeConcurrent(t *testing.T) {
	const nodes, rounds = 4, 200
	e := NewEpochExchange(nodes)
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		arrived int
		gen     int
	)
	rendezvous := func() {
		mu.Lock()
		defer mu.Unlock()
		g := gen
		if arrived++; arrived == nodes {
			arrived, gen = 0, gen+1
			cond.Broadcast()
			return
		}
		for g == gen {
			cond.Wait()
		}
	}
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var buf []memsim.PageID
			for r := 0; r < rounds; r++ {
				e.Deposit(uint64(r), n, []memsim.PageID{memsim.PageID(n), memsim.PageID(r)})
				rendezvous()
				buf = e.CollectOthers(uint64(r), n, buf[:0])
				if len(buf) != 2*(nodes-1) {
					t.Errorf("node %d round %d collected %v", n, r, buf) // keep meeting the others
				}
			}
		}(n)
	}
	wg.Wait()
	if live := e.liveEpochs(); live != 0 {
		t.Fatalf("%d epochs live after every node collected every round", live)
	}
}

func TestBoardConcurrent(t *testing.T) {
	b := NewBoard()
	var wg sync.WaitGroup
	const rounds = 200
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.AddForOthers(w, 4, []memsim.PageID{memsim.PageID(i)})
				b.take(w)
			}
		}(w)
	}
	wg.Wait() // must not race or deadlock
}

// take removes and returns the notices pending for a node.
func (b *Board) take(node int) []memsim.PageID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.byN[node]
	delete(b.byN, node)
	return out
}

// pending reports how many notices are queued for a node.
func (b *Board) pending(node int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byN[node])
}

// liveEpochs reports how many epochs still hold storage.
func (e *EpochExchange) liveEpochs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.epochs)
}
