package pagestore

import (
	"sync"
	"sync/atomic"

	"hamster/internal/memsim"
)

// Buffer and cache-entry recycling for the substrates' page caches. The
// caches churn on every invalidation wave, and a hot loop must not pay
// the allocator for it.
//
// Every page buffer a substrate holds — home frames, SMP frames, cached
// copies, twins, ivy's copies, the migration zero page — and the
// checkpoint capture scratch come from one free list and go back to it.
// The page images a checkpoint keeps (captured pages, incremental
// shadows) are the one exception: they belong to their snapshot, which
// outlives the runtime, and are allocated per capture. The list is a mutex-guarded stack of *[PageSize]byte: a sync.Pool
// would be simpler, but the garbage collector empties a sync.Pool every
// second cycle, and a simulation pass runs a dozen cycles, so nothing it
// held survived from one cell to the next. The list only ever holds
// buffers the process once had live at the same time, so it needs no
// cap.
//
// Ownership chain of a software-DSM page buffer: the home's fetch handler
// takes a buffer from the list and fills it from the frame; the reply
// travels (by reference — the active-message fast path never copies) to
// the requester, which installs it as the cached copy; the buffer returns
// to the list only when that cached copy is retired (eviction,
// invalidation, fence, home migration, checkpoint restore rebuild) or its
// runtime closes. A home frame's buffer is replaced, not patched, by a
// diff: the handler fills a list buffer from the frame, applies the diff
// to it and publishes it (Frame.Replace), and the buffer it replaced waits
// on the home node until that node's own goroutine, which reads its home
// frames without a lock, hands it back at its next access (see package
// swdsm). ivy's requester copies each grant out of its reply scratch into
// a list buffer instead, and a copy a handler takes away waits on its
// node the same way (see package ivy). Exactly one owner at every step,
// so a buffer is never recycled while a reader still holds it, and a
// substrate's Close hands back every buffer it still holds, once, at
// quiescence — the recycling tests (pool_test.go) hammer this chain under
// -race and check every return against the list.
//
// Prefetch replies are the one exception to one-buffer-per-page: a
// multi-page reply is a single allocation carved into PageSize windows by
// three-index subslices (len == cap == PageSize, so no write through one
// window can reach another). The windows retire individually onto the
// list like any other page buffer.

type page = [memsim.PageSize]byte

// pages is the one free list. check is nil outside the recycling tests
// (see export_test.go).
var pages struct {
	mu    sync.Mutex
	free  []*page
	check *returns
}

// GetPage returns a PageSize buffer with undefined contents.
func GetPage() []byte {
	pages.mu.Lock()
	var b *page
	if n := len(pages.free); n > 0 {
		b = pages.free[n-1]
		pages.free = pages.free[:n-1]
	} else {
		b = new(page)
	}
	if pages.check != nil {
		pages.check.take(b)
	}
	pages.mu.Unlock()
	return b[:]
}

// GetZeroedPage returns a PageSize buffer of zeros: a frame or a page
// that must read as never written.
func GetZeroedPage() []byte {
	b := GetPage()
	clear(b)
	return b
}

// PutPage recycles a page buffer. Buffers whose shape is not exactly one
// page (len == cap == PageSize) are left to the garbage collector — the
// list must never hand out a buffer through which a neighboring window
// could be reached.
func PutPage(b []byte) {
	if len(b) != memsim.PageSize || cap(b) != memsim.PageSize {
		return
	}
	pages.mu.Lock()
	putLocked((*page)(b))
	pages.mu.Unlock()
}

// putLocked pushes b onto the list. Call with pages.mu held.
func putLocked(b *page) {
	if pages.check != nil {
		pages.check.give(b)
	}
	pages.free = append(pages.free, b)
}

// Retired queues the page buffers taken away from under one node's
// lock-free reads. A handler on any goroutine adds a buffer the node may
// still be reading; the node's own goroutine recycles the queue where it
// holds no buffer it read without a lock. A home node blocked in a lock
// wait can collect hundreds of diffs' buffers, so a queue's storage comes
// from a list of its own and goes back to it at Close: queues stop
// allocating once they have grown as long as a run needs, instead of
// growing again in every runtime. The zero value is an empty queue.
type Retired struct {
	mu   sync.Mutex
	bufs []*page
	any  atomic.Bool // len(bufs) > 0, for the owner's check without mu
}

// queues is Retired's storage list.
var queues struct {
	mu   sync.Mutex
	free [][]*page
}

// Add queues b, a page buffer from the list. Any goroutine.
func (r *Retired) Add(b []byte) {
	r.mu.Lock()
	if r.bufs == nil {
		queues.mu.Lock()
		if n := len(queues.free); n > 0 {
			r.bufs = queues.free[n-1]
			queues.free = queues.free[:n-1]
		}
		queues.mu.Unlock()
	}
	r.bufs = append(r.bufs, (*page)(b))
	r.any.Store(true)
	r.mu.Unlock()
}

// Recycle hands every queued buffer back to the page list. Call from the
// node's own goroutine where it holds no buffer it read without a lock;
// while the queue is empty it costs one atomic load.
func (r *Retired) Recycle() {
	if r.any.Load() {
		r.recycle()
	}
}

func (r *Retired) recycle() {
	r.mu.Lock()
	pages.mu.Lock()
	for i, b := range r.bufs {
		putLocked(b)
		r.bufs[i] = nil
	}
	pages.mu.Unlock()
	r.bufs = r.bufs[:0]
	r.any.Store(false)
	r.mu.Unlock()
}

// Close recycles the queue and hands its storage back to the storage
// list. Call at quiescence; the queue may be used again afterwards.
func (r *Retired) Close() {
	r.recycle()
	if r.bufs != nil {
		queues.mu.Lock()
		queues.free = append(queues.free, r.bufs)
		queues.mu.Unlock()
		r.bufs = nil
	}
}

// returns is the recycling tests' duplicate check (export_test.go turns
// it on): which buffers it has seen are on the list, and how many it has
// handed out and not seen come back.
type returns struct {
	onList map[*page]bool
	out    int
}

func (r *returns) take(b *page) {
	r.onList[b] = false
	r.out++
}

func (r *returns) give(b *page) {
	if r.onList[b] {
		panic("pagestore: a page buffer was returned to the list twice")
	}
	r.onList[b] = true
	r.out--
}

// Entry is one cached remote page, linked into its node's recency list.
// Ext is whatever else the substrate keeps per cached page. Owned
// exclusively by the node's goroutine.
type Entry[T any] struct {
	Data       []byte
	Page       memsim.PageID
	Ext        T
	prev, next *Entry[T]
}

// EntryPool recycles one substrate's cache entries.
type EntryPool[T any] struct{ pool sync.Pool }

// Get returns a zeroed entry.
func (p *EntryPool[T]) Get() *Entry[T] {
	if e, ok := p.pool.Get().(*Entry[T]); ok {
		return e
	}
	return new(Entry[T])
}

// Put retires an entry: its page buffer goes back to the page list, the
// struct to this pool. The caller must have unlinked it from the LRU and
// released whatever Ext holds.
func (p *EntryPool[T]) Put(e *Entry[T]) {
	PutPage(e.Data)
	*e = Entry[T]{}
	p.pool.Put(e)
}

// LRU is an intrusive doubly-linked recency list over entries (front =
// most recent). Intrusive rather than container/list so that moving a
// page to the front on every access — the single hottest list operation
// in a DSM — touches no allocator and no interface boxing. Owned, like
// the cache map, by the node's goroutine.
type LRU[T any] struct {
	head, tail *Entry[T]
}

// PushFront links an unlinked entry as the most recent.
func (l *LRU[T]) PushFront(e *Entry[T]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// Remove unlinks an entry.
func (l *LRU[T]) Remove(e *Entry[T]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// MoveToFront marks an entry most recent. The already-in-front check is
// split from the relinking so that it inlines into the per-word access
// paths that call this on every cache hit.
func (l *LRU[T]) MoveToFront(e *Entry[T]) {
	if l.head != e {
		l.relink(e)
	}
}

func (l *LRU[T]) relink(e *Entry[T]) {
	l.Remove(e)
	l.PushFront(e)
}

// Back returns the least recently used entry, nil when empty.
func (l *LRU[T]) Back() *Entry[T] { return l.tail }
