package pagestore

import (
	"sync"

	"hamster/internal/memsim"
)

// Buffer and cache-entry recycling for the substrates' page caches. The
// caches churn on every invalidation wave, and a hot loop must not pay
// the allocator for it.
//
// Ownership chain of a software-DSM page buffer: the home's fetch handler
// takes a buffer from the pool and fills it from the frame; the reply
// travels (by reference — the active-message fast path never copies) to
// the requester, which installs it as the cached copy; the buffer returns
// to the pool only when that cached copy is retired (eviction,
// invalidation, fence, home migration, checkpoint restore rebuild).
// Exactly one owner at every step, so a pooled buffer can never be
// recycled while a reader still holds it — the aliasing race test
// (pool_test.go) hammers this chain under -race.
//
// Prefetch replies are the one exception to one-buffer-per-page: a
// multi-page reply is a single allocation carved into PageSize windows by
// three-index subslices (len == cap == PageSize, so no write through one
// window can reach another). The windows retire individually like any
// other page buffer; the shared backing array is simply reclaimed window
// by window.

// The pool stores *[PageSize]byte rather than []byte: putting a slice
// into a sync.Pool boxes its three-word header into an interface — one
// heap allocation per recycle, which is exactly what the pool exists to
// avoid. Slice ⇄ array-pointer conversions are free.
var pagePool = sync.Pool{
	New: func() any { return new([memsim.PageSize]byte) },
}

// GetPage returns a PageSize buffer with undefined contents.
func GetPage() []byte { return pagePool.Get().(*[memsim.PageSize]byte)[:] }

// PutPage recycles a page buffer. Buffers whose shape is not exactly one
// page (len == cap == PageSize) are left to the garbage collector — the
// pool must never hand out a buffer through which a neighboring window
// could be reached.
func PutPage(b []byte) {
	if len(b) == memsim.PageSize && cap(b) == memsim.PageSize {
		pagePool.Put((*[memsim.PageSize]byte)(b))
	}
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

// Put retires an entry: its page buffer goes back to the page pool, the
// struct to this one. The caller must have unlinked it from the LRU and
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
