// Package notices implements write-notice bookkeeping shared by the DSM
// substrates.
//
// A write notice names a page some node modified during a synchronization
// interval. Relaxed-consistency DSMs attach notices to synchronization
// objects: a lock carries the notices of the critical sections it guarded
// (scope consistency), a barrier merges everyone's notices globally. On
// acquire, a node invalidates its cached copies of noticed pages. This is
// the bookkeeping behind the paper's consistency control mechanisms
// (§3.2/§4.2); the communication that moves the notices lives in the
// substrates, not here.
//
// Concurrency: a Board or EpochExchange is shared by every node goroutine
// and internally locked; all methods are safe for concurrent use (a
// Board's post count is an atomic, read without the lock). The
// package never touches virtual clocks — charging the cost of
// propagating notices is the caller's job.
package notices

import (
	"sync"
	"sync/atomic"

	"hamster/internal/memsim"
)

// Board holds the notices released under one synchronization object
// (typically a lock) until each other node drains them. It is one
// append-only page log: a post appends its pages once and marks the run
// with its poster, and each node keeps a cursor into the run marks. A
// drain copies the runs past the node's cursor that other nodes posted,
// so a node receives every post but its own, in post order. Once every
// cursor reaches the end — at the latest when a barrier drains, on every
// node, every board posted since that node's last barrier drain — the
// log truncates and keeps its capacity.
type Board struct {
	mu      sync.Mutex
	log     []memsim.PageID
	runs    []run // one per post, in post order
	cursor  []int // per node: how many runs it has drained or posted past
	drained int   // nodes whose cursor is at len(runs)
	// posts counts the non-empty posts ever taken (Posts).
	posts atomic.Uint64
}

// run marks one post: log[previous run's end:end], posted by poster.
type run struct {
	poster int
	end    int
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{}
}

// TakeInto drains the notices pending for a node by appending them to dst
// and returns the extended slice. The board keeps its log's backing
// array for the next interval, so a steady TakeInto/AddForOthers cycle
// stops allocating once both the log and dst have grown to the
// interval's working size. The caller owns dst; the board never aliases
// it.
func (b *Board) TakeInto(node int, dst []memsim.PageID) []memsim.PageID {
	b.mu.Lock()
	defer b.mu.Unlock()
	// An empty log may predate the first post, which sizes the cursors.
	if len(b.runs) == 0 || b.cursor[node] == len(b.runs) {
		return dst
	}
	c := b.cursor[node]
	start := 0
	if c > 0 {
		start = b.runs[c-1].end
	}
	for _, r := range b.runs[c:] {
		if r.poster != node {
			dst = append(dst, b.log[start:r.end]...)
		}
		start = r.end
	}
	b.cursor[node] = len(b.runs)
	b.drained++
	b.settle()
	return dst
}

// Posts reports how many non-empty posts the board has taken, ever. It
// is bumped inside the post's critical section, so a drain that starts
// after Posts returned n sees at least the first n posts: a reader that
// drained after reading n, and reads n again, has nothing new to drain.
func (b *Board) Posts() uint64 { return b.posts.Load() }

// AddForOthers queues pages as pending notices for every node except
// self. nodes is the cluster size, the same on every call to a board.
func (b *Board) AddForOthers(self, nodes int, pages []memsim.PageID) {
	if len(pages) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.posts.Add(1)
	if b.cursor == nil {
		b.cursor = make([]int, nodes)
	}
	// A poster with nothing else pending has nothing to drain in its own
	// post: its cursor moves past it, so the log can still empty without
	// the poster draining.
	caughtUp := b.cursor[self] == len(b.runs)
	b.log = append(b.log, pages...)
	b.runs = append(b.runs, run{poster: self, end: len(b.log)})
	b.drained = 0
	if caughtUp {
		b.cursor[self] = len(b.runs)
		b.drained = 1
		b.settle()
	}
}

// settle empties the log, keeping its capacity, once every node has
// drained it. Requires mu.
func (b *Board) settle() {
	if b.drained == len(b.cursor) {
		b.log, b.runs = b.log[:0], b.runs[:0]
		clear(b.cursor)
	}
}

// EpochExchange merges per-node notices at barrier epochs. Every node
// deposits its notices for epoch e before the barrier rendezvous and
// collects everyone else's after it, appending them into a buffer it owns;
// the epoch's storage is reclaimed when all nodes have collected. The
// rendezvous orders every Deposit of an epoch before its collections, so
// the lock only guards the epoch table: the N collections of an epoch copy
// the deposited lists concurrently, each into its own buffer.
type EpochExchange struct {
	mu     sync.Mutex
	nodes  int
	epochs map[uint64]*epochData
}

type epochData struct {
	notices [][]memsim.PageID // indexed by depositing node
	fetched int
}

// NewEpochExchange creates an exchange for a fixed cluster size.
func NewEpochExchange(nodes int) *EpochExchange {
	return &EpochExchange{nodes: nodes, epochs: make(map[uint64]*epochData)}
}

// Deposit records a node's notices for an epoch. Must be called before the
// node enters the barrier rendezvous for that epoch.
func (e *EpochExchange) Deposit(epoch uint64, node int, pages []memsim.PageID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ed, ok := e.epochs[epoch]
	if !ok {
		ed = &epochData{notices: make([][]memsim.PageID, e.nodes)}
		e.epochs[epoch] = ed
	}
	ed.notices[node] = pages
}

// CollectOthers appends the union of all other nodes' notices for an
// epoch to dst and returns the extended slice (dst itself when nobody
// deposited). Must be called after the barrier rendezvous, exactly once
// per node per epoch. The caller owns dst; the exchange never aliases it.
func (e *EpochExchange) CollectOthers(epoch uint64, node int, dst []memsim.PageID) []memsim.PageID {
	e.mu.Lock()
	ed, ok := e.epochs[epoch]
	if ok {
		ed.fetched++
		if ed.fetched == e.nodes {
			delete(e.epochs, epoch)
		}
	}
	e.mu.Unlock()
	if !ok {
		return dst
	}
	// Append depositors in node order: the collected list feeds
	// invalidations whose flush traffic must be a pure function of program
	// state for seeded fault campaigns to replay bit-identically (virtual
	// totals commute, but message sequences are positional).
	for id, pages := range ed.notices {
		if id != node {
			dst = append(dst, pages...)
		}
	}
	return dst
}
