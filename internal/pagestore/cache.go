package pagestore

import (
	"sync"

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
// runtime closes. ivy's requester copies each grant out of its reply
// scratch into a list buffer instead, and a copy a handler takes away
// waits on its node until that node's own goroutine, which may still be
// reading it, hands it back (see package ivy). Exactly one owner at every
// step, so a buffer is never recycled while a reader still holds it, and
// a substrate's Close hands back every buffer it still holds, once, at
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
	defer pages.mu.Unlock()
	if pages.check != nil {
		pages.check.give((*page)(b))
	}
	pages.free = append(pages.free, (*page)(b))
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
