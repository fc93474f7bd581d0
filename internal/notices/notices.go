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
// and internally locked; all methods are safe for concurrent use. The
// package never touches virtual clocks — charging the cost of
// propagating notices is the caller's job.
package notices

import (
	"sync"

	"hamster/internal/memsim"
)

// Board holds per-destination pending notices for one synchronization
// object (typically a lock).
type Board struct {
	mu  sync.Mutex
	byN map[int][]memsim.PageID
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{byN: make(map[int][]memsim.PageID)}
}

// TakeInto drains the notices pending for a node by appending them to dst
// and returns the extended slice. The board keeps its queue's backing
// array (truncated to zero length) for the next interval, so a steady
// TakeInto/AddForOthers cycle stops allocating once both the queue and
// dst have grown to the interval's working size. The caller owns dst; the
// board never aliases it.
func (b *Board) TakeInto(node int, dst []memsim.PageID) []memsim.PageID {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.byN[node]
	if len(q) == 0 {
		return dst
	}
	dst = append(dst, q...)
	b.byN[node] = q[:0]
	return dst
}

// AddForOthers queues pages as pending notices for every node except self.
func (b *Board) AddForOthers(self, nodes int, pages []memsim.PageID) {
	if len(pages) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for m := 0; m < nodes; m++ {
		if m == self {
			continue
		}
		b.byN[m] = append(b.byN[m], pages...)
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
