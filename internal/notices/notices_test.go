package notices

import (
	"fmt"
	"math/rand/v2"
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

// refBoard is the board's specification: one pending queue per
// destination, each post copied into every queue but the poster's.
type refBoard map[int][]memsim.PageID

func (r refBoard) add(self, nodes int, pages []memsim.PageID) {
	for m := 0; m < nodes; m++ {
		if m != self {
			r[m] = append(r[m], pages...)
		}
	}
}

func (r refBoard) take(node int, dst []memsim.PageID) []memsim.PageID {
	dst = append(dst, r[node]...)
	delete(r, node)
	return dst
}

// The log board drains exactly what per-destination queues would, in the
// same order, under random post/drain sequences: with one board per lock
// (scope) and with one board every lock shares (eager release
// consistency). A barrier drains every board on every node and must leave
// each log empty.
func TestBoardMatchesPerDestinationModel(t *testing.T) {
	const locks, steps = 3, 3000
	for _, nodes := range []int{1, 2, 5, 64} {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/shared=%v", nodes, shared), func(t *testing.T) {
				s := rand.New(rand.NewPCG(uint64(nodes), 7))
				boards := make([]*Board, locks)
				refs := make([]refBoard, locks)
				for l := range boards {
					if l == 0 || !shared {
						boards[l], refs[l] = NewBoard(), refBoard{}
					} else {
						boards[l], refs[l] = boards[0], refs[0]
					}
				}
				var got, want []memsim.PageID
				page := memsim.PageID(0)
				for step := 0; step < steps; step++ {
					l, node := s.IntN(locks), s.IntN(nodes)
					switch r := s.IntN(100); {
					case r < 45: // release
						pages := make([]memsim.PageID, s.IntN(4))
						for i := range pages {
							page++
							pages[i] = page
						}
						boards[l].AddForOthers(node, nodes, pages)
						refs[l].add(node, nodes, pages)
					case r < 97: // acquire, appending after what dst holds
						got = boards[l].TakeInto(node, append(got[:0], 1<<40))
						want = refs[l].take(node, append(want[:0], 1<<40))
						if !slices.Equal(got, want) {
							t.Fatalf("step %d: node %d took %v from lock %d, model has %v", step, node, got, l, want)
						}
					default: // barrier
						for l := range boards {
							for m := 0; m < nodes; m++ {
								got = boards[l].TakeInto(m, got[:0])
								want = refs[l].take(m, want[:0])
								if !slices.Equal(got, want) {
									t.Fatalf("step %d: barrier drain of node %d took %v from lock %d, model has %v",
										step, m, got, l, want)
								}
							}
						}
						for l, b := range boards {
							if n := b.logLen(); n != 0 {
								t.Fatalf("step %d: lock %d's log holds %d pages after a barrier", step, l, n)
							}
						}
					}
					if n := boards[l].logLen(); nodes == 1 && n != 0 {
						t.Fatalf("step %d: a one-node board holds %d pages nobody can drain", step, n)
					}
				}
			})
		}
	}
}

// A warmed post/drain cycle allocates nothing: the log, its run marks and
// the drain buffer keep their capacity across truncations. Each poster
// hands the lock on without draining its own post, as a releaser does,
// and the log still empties once the others have drained.
func TestBoardCycleZeroAlloc(t *testing.T) {
	const nodes = 64
	b := NewBoard()
	pages := []memsim.PageID{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]memsim.PageID, 0, len(pages))
	cycle := func() {
		for poster := 0; poster < nodes; poster += 16 {
			b.AddForOthers(poster, nodes, pages)
			for node := 0; node < nodes; node++ {
				if node != poster {
					buf = b.TakeInto(node, buf[:0])
				}
			}
			if n := b.logLen(); n != 0 {
				t.Fatalf("log holds %d pages after every other node drained %d's post", n, poster)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warmed post/drain cycle: %.2f allocs", allocs)
	}
}

// Only a non-empty post counts, a drain moves nothing, and concurrent
// posters are counted exactly.
func TestBoardPosts(t *testing.T) {
	b := NewBoard()
	b.AddForOthers(0, 4, nil)
	b.AddForOthers(1, 4, []memsim.PageID{})
	if got := b.Posts(); got != 0 {
		t.Fatalf("empty posts counted: Posts() = %d", got)
	}
	b.AddForOthers(0, 4, []memsim.PageID{1, 2})
	b.take(1)
	b.AddForOthers(2, 4, []memsim.PageID{3})
	if got := b.Posts(); got != 2 {
		t.Fatalf("two posts and a drain: Posts() = %d, want 2", got)
	}

	const posters, rounds = 4, 250
	b = NewBoard()
	var wg sync.WaitGroup
	for w := 0; w < posters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.AddForOthers(w, posters, []memsim.PageID{memsim.PageID(i)})
				b.AddForOthers(w, posters, nil)
				b.take(w)
				_ = b.Posts()
			}
		}(w)
	}
	wg.Wait()
	if got := b.Posts(); got != posters*rounds {
		t.Fatalf("%d posters × %d posts: Posts() = %d", posters, rounds, got)
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
	return b.TakeInto(node, nil)
}

// pending reports how many notices are queued for a node: the pages of
// the runs past its cursor that another node posted.
func (b *Board) pending(node int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := 0
	if node < len(b.cursor) {
		c = b.cursor[node]
	}
	n, start := 0, 0
	for i, r := range b.runs {
		if i >= c && r.poster != node {
			n += r.end - start
		}
		start = r.end
	}
	return n
}

// logLen reports how many pages the board's log holds.
func (b *Board) logLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.log)
}

// liveEpochs reports how many epochs still hold storage.
func (e *EpochExchange) liveEpochs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.epochs)
}
