package memsim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	chunkBits = 9
	chunkSize = 1 << chunkBits // entries per chunk: 512 pointers, one 4 KiB block

	// maxPages bounds the address space (64 GiB). Alloc never hands out a
	// page at or above it and a Table refuses to create one, so a wild
	// PageID costs a panic, not a top level sized by the address.
	maxPages = 1 << 24
)

// Table maps dense PageIDs to *T: the one page-indexed structure under
// every frame and home lookup. Get sits on the word-access path of every
// substrate, where even a reader lock makes all node goroutines write one
// cache line per simulated word, so lookups are atomic loads of words that
// change only when a page is created, dropped or re-homed; every mutation
// serializes on mu. The zero value is an empty table.
type Table[T any] struct {
	// top is published copy-on-write: a new slice replaces it whenever a
	// chunk is added. Chunks are never freed or moved, so a reader holding
	// an old top sees every entry of the chunks it knows.
	top atomic.Pointer[[]*tableChunk[T]]
	mu  sync.Mutex
}

type tableChunk[T any] [chunkSize]atomic.Pointer[T]

// Get returns page p's entry, or nil when it has none. Atomic loads only.
func (t *Table[T]) Get(p PageID) *T {
	if top := t.top.Load(); top != nil && p>>chunkBits < PageID(len(*top)) {
		if c := (*top)[p>>chunkBits]; c != nil {
			return c[p%chunkSize].Load()
		}
	}
	return nil
}

// GetOrCreate returns page p's entry, installing mk() first when the page
// has none. Racing creators get the same entry and mk runs once.
func (t *Table[T]) GetOrCreate(p PageID, mk func() *T) *T {
	if v := t.Get(p); v != nil {
		return v
	}
	return t.create(p, mk)
}

func (t *Table[T]) create(p PageID, mk func() *T) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slotLocked(p)
	if s.Load() == nil { // double check: a racing creator may have won
		s.Store(mk())
	}
	return s.Load()
}

// set installs v (non-nil) as page p's entry, replacing any other.
func (t *Table[T]) set(p PageID, v *T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slotLocked(p).Store(v)
}

// Drop removes and returns page p's entry (nil when it had none). A later
// GetOrCreate builds a fresh one; holders of the old entry keep it.
func (t *Table[T]) Drop(p PageID) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Get(p) == nil {
		return nil // nothing to drop, and no chunk to add for it
	}
	return t.slotLocked(p).Swap(nil)
}

// Range calls fn for every resident page in ascending PageID order. It
// takes no lock: pages created or dropped meanwhile may or may not be seen.
func (t *Table[T]) Range(fn func(PageID, *T)) {
	top := t.top.Load()
	if top == nil {
		return
	}
	for i, c := range *top {
		if c == nil {
			continue
		}
		for j := range c {
			if v := c[j].Load(); v != nil {
				fn(PageID(i<<chunkBits|j), v)
			}
		}
	}
}

// slotLocked returns page p's slot, adding its chunk (and republishing the
// top level) when missing. The caller holds t.mu.
func (t *Table[T]) slotLocked(p PageID) *atomic.Pointer[T] {
	if p >= maxPages {
		panic(fmt.Sprintf("memsim: page %d is outside the %d-page address space", p, maxPages))
	}
	var top []*tableChunk[T]
	if cur := t.top.Load(); cur != nil {
		top = *cur
	}
	i := int(p >> chunkBits)
	if i >= len(top) || top[i] == nil {
		grown := make([]*tableChunk[T], max(len(top), i+1))
		copy(grown, top)
		grown[i] = new(tableChunk[T])
		t.top.Store(&grown)
		top = grown
	}
	return &top[i][p%chunkSize]
}
