package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"hamster/internal/loadgen"
	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

// wordMachine is an apps.Machine over a sparse word map: enough to drive
// one node's ingest and apply order without a substrate, a clock or
// peers. Alloc hands out page-aligned, never-reused ranges.
type wordMachine struct {
	id, n int
	mem   map[memsim.Addr]int64
	next  memsim.Addr
}

func newWordMachine(id, n int) *wordMachine {
	return &wordMachine{id: id, n: n, mem: make(map[memsim.Addr]int64), next: memsim.PageSize}
}

func (w *wordMachine) ID() int { return w.id }
func (w *wordMachine) N() int  { return w.n }
func (w *wordMachine) Alloc(bytes uint64, _ string, _ memsim.Policy) memsim.Addr {
	a := w.next
	w.next += memsim.Addr((bytes + memsim.PageSize - 1) / memsim.PageSize * memsim.PageSize)
	return a
}
func (w *wordMachine) ReadF64(a memsim.Addr) float64     { return math.Float64frombits(uint64(w.mem[a])) }
func (w *wordMachine) WriteF64(a memsim.Addr, v float64) { w.mem[a] = int64(math.Float64bits(v)) }
func (w *wordMachine) ReadI64(a memsim.Addr) int64       { return w.mem[a] }
func (w *wordMachine) WriteI64(a memsim.Addr, v int64)   { w.mem[a] = v }
func (w *wordMachine) ReadF64Block(a memsim.Addr, dst []float64) {
	for i := range dst {
		dst[i] = w.ReadF64(a + memsim.Addr(8*i))
	}
}
func (w *wordMachine) WriteF64Block(a memsim.Addr, src []float64) {
	for i, v := range src {
		w.WriteF64(a+memsim.Addr(8*i), v)
	}
}
func (w *wordMachine) ReadI64Block(a memsim.Addr, dst []int64) {
	for i := range dst {
		dst[i] = w.mem[a+memsim.Addr(8*i)]
	}
}
func (w *wordMachine) WriteI64Block(a memsim.Addr, src []int64) {
	for i, v := range src {
		w.mem[a+memsim.Addr(8*i)] = v
	}
}
func (w *wordMachine) Compute(uint64)   {}
func (w *wordMachine) Lock(int)         {}
func (w *wordMachine) Unlock(int)       {}
func (w *wordMachine) Barrier()         {}
func (w *wordMachine) Now() vclock.Time { return 0 }

// ingestFixture is the last node of an n-node run of workload — a
// consumer in every workload — with producer p's ring to it holding
// runs[p] as arrivals, published but not yet popped. With wrap, every
// non-empty run straddles the ring's end. It returns the node and the
// queue in producer-major order, the order readRing pops.
func ingestFixture(workload string, n int, runs [][]uint64, wrap bool) (*nodeState, []op) {
	cfg := Config{Workload: workload}.WithDefaults(n)
	m := newWordMachine(n-1, n)
	st := newNodeState(cfg, m, nil)
	st.allocRegions()
	if len(runs) != st.l.prods {
		panic(fmt.Sprintf("fixture: %d runs for %d producers", len(runs), st.l.prods))
	}
	var queue []op
	for p, arrivals := range runs {
		c0 := 0
		if wrap {
			c0 = ringSlots - len(arrivals)/2
		}
		for j, at := range arrivals {
			o := op{key: uint64(p)<<32 | uint64(j), kind: opGet, arrival: at, session: uint64(p)}
			queue = append(queue, o)
			m.WriteI64Block(st.l.ringSlot(p, st.id, (c0+j)%ringSlots),
				[]int64{int64(o.key), o.kind, int64(o.arrival), int64(o.session)})
		}
		m.WriteI64(st.l.wcurAddr(p)+memsim.Addr(8*st.id), int64(c0+len(arrivals)))
		st.consumed[p] = uint64(c0)
	}
	return st, queue
}

// ingestWalk pops the fixture's rings again from cursors, ingests, and
// appends the apply phase's order to dst.
func ingestWalk(st *nodeState, cursors []uint64, dst []op) []op {
	copy(st.consumed, cursors)
	st.phaseIngest()
	st.merge.start(st.queue)
	for i, ok := st.merge.pop(); ok; i, ok = st.merge.pop() {
		dst = append(dst, st.queue[i])
	}
	return dst
}

// gappedRuns draws each producer's arrivals with gaps of 0–maxGap ns
// from a common start, so runs tie with each other (and, at gap 0,
// within themselves); a producer's run length is drawn from [0, maxLen].
func gappedRuns(seed uint64, prods, maxLen int, maxGap uint64) [][]uint64 {
	s := loadgen.NewStream(seed)
	runs := make([][]uint64, prods)
	for p := range runs {
		at := uint64(1000)
		for range int(s.Next() % uint64(maxLen+1)) {
			at += s.Next() % (maxGap + 1)
			runs[p] = append(runs[p], at)
		}
	}
	return runs
}

// The apply phase's walk over the ingested runs must give the order a
// stable sort by arrival gives the queue as readRing builds it
// (producer-major, each producer's run in arrival order): equal
// arrivals across producers break by producer rank, equal arrivals in
// one run keep the run's order.
func TestIngestOrderMatchesStableSort(t *testing.T) {
	const every = 200
	full := func(prods int) [][]uint64 { return gappedRuns(9, prods, every, 3) }
	equal := make([][]uint64, 4)
	for p := range equal {
		for range every {
			equal[p] = append(equal[p], 777)
		}
	}
	holes := full(6)
	holes[0], holes[2], holes[3] = nil, nil, nil
	cases := []struct {
		name     string
		workload string
		n        int
		runs     [][]uint64
		wrap     bool
	}{
		{"cross-producer ties", WorkloadKV, 5, full(5), false},
		{"empty runs between full ones", WorkloadKV, 6, holes, false},
		{"one producer", WorkloadPipeline, 2, full(1), false},
		{"all arrivals equal", WorkloadKV, 4, equal, false},
		{"runs wrap the ring", WorkloadKV, 3, full(3), true},
		{"64 producers", WorkloadKV, 64, gappedRuns(10, 64, 24, 6), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, queue := ingestFixture(c.workload, c.n, c.runs, c.wrap)
			want := slices.Clone(queue)
			sort.SliceStable(want, func(i, j int) bool { return want[i].arrival < want[j].arrival })
			ties := 0
			for i := 1; i < len(want); i++ {
				if want[i].arrival == want[i-1].arrival && want[i].session != want[i-1].session {
					ties++
				}
			}
			if ties == 0 && len(c.runs) > 1 {
				t.Fatal("no equal arrivals across producers; the case proves nothing")
			}
			cursors := slices.Clone(st.consumed)
			for pass := 0; pass < 2; pass++ { // the second walk reuses the scratch
				got := ingestWalk(st, cursors, nil)
				if len(got) != len(want) {
					t.Fatalf("pass %d: walked %d ops, queued %d", pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pass %d, position %d: (arrival %d, prod %d), stable sort has (arrival %d, prod %d)",
							pass, i, got[i].arrival, got[i].session, want[i].arrival, want[i].session)
					}
				}
			}
		})
	}
}

// A warmed ingest and apply-order walk allocates nothing: the queue
// keeps its backing array and the merge's scratch is newNodeState's.
func TestIngestWalkZeroAlloc(t *testing.T) {
	st, queue := ingestFixture(WorkloadKV, 64, gappedRuns(11, 64, 24, 6), true)
	cursors := slices.Clone(st.consumed)
	buf := ingestWalk(st, cursors, nil)
	allocs := testing.AllocsPerRun(20, func() { buf = ingestWalk(st, cursors, buf[:0]) })
	if allocs != 0 || len(buf) != len(queue) {
		t.Fatalf("warmed ingest walk: %.2f allocs, %d of %d ops", allocs, len(buf), len(queue))
	}
}

// A run that goes back in time is a fabric bug; the walk names it
// instead of applying ops out of order.
func TestIngestRunOutOfOrderPanics(t *testing.T) {
	st, _ := ingestFixture(WorkloadKV, 3, [][]uint64{{1, 2}, {5, 3, 9}, {4}}, false)
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"node 2", "producer 1", "arrival 3 after 5"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	ingestWalk(st, slices.Clone(st.consumed), nil)
}

// BenchmarkRunMerge walks 16 producers' runs of Poisson arrivals, the
// shape of one serve-mix consumer's round, through the apply order.
func BenchmarkRunMerge(b *testing.B) {
	const prods, perProd = 16, 128
	s := loadgen.NewStream(3)
	var queue []op
	mg := newRunMerge(0, prods)
	for p := 0; p < prods; p++ {
		start := len(queue)
		var at uint64
		for range perProd {
			at += 1 + s.Next()%(2*4000*prods)
			queue = append(queue, op{arrival: at})
		}
		mg.setRun(p, start, len(queue))
	}
	saved := slices.Clone(mg.runs)
	b.ResetTimer()
	for range b.N {
		copy(mg.runs, saved)
		mg.start(queue)
		for _, ok := mg.pop(); ok; _, ok = mg.pop() {
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queue)), "ns/op-walked")
}
