// Package pagestore provides page-granular frame storage with per-page
// mutexes. DSM substrates keep each page's authoritative copy in such a
// store: the owning node accesses it while protocol handlers (page
// fetches, diff application) and peers' remote accesses run on other
// goroutines. A frame publishes its buffer through an atomic pointer, so a
// substrate whose handlers replace a frame's buffer instead of writing it
// (swdsm's diffs) lets the owner read without the mutex, and keeps the
// mutex around its writes, fetches, checkpoints and migration. One whose
// peers load and store frames in place (hybriddsm's PIO accesses) does
// every access with memsim's atomic word helpers and takes no mutex.
package pagestore

import (
	"sync"
	"sync/atomic"

	"hamster/internal/memsim"
)

// Frame is one page frame. A substrate that accesses its bytes with plain
// loads and stores (swdsm) holds Mu for every write and for every read
// that can overlap a write in place; a handler that must not write under
// a lock-free reader copies the bytes into a fresh buffer, changes the
// copy and publishes it with Replace, and the reader keeps whichever
// buffer it loaded, which nobody writes again. A substrate whose every
// access is a memsim atomic word access (hybriddsm) never takes Mu.
type Frame struct {
	Mu  sync.Mutex
	buf atomic.Pointer[page]
}

// Bytes returns the frame's current buffer.
func (f *Frame) Bytes() []byte { return f.buf.Load()[:] }

// Replace publishes b, a page buffer from the list, as the frame's bytes
// and returns the buffer it replaces. A reader that loaded that buffer
// without Mu may still hold it, so the caller hands it back to the list
// only once no such reader can remain. Call with Mu held.
func (f *Frame) Replace(b []byte) []byte { return f.buf.Swap((*page)(b))[:] }

// Store maps pages to frames, allocating zeroed frames lazily. Lookups are
// memsim.Table's atomic loads; any goroutine may create a frame (first
// touch) and only home migration drops one.
type Store struct {
	frames memsim.Table[Frame]
}

// New returns an empty store.
func New() *Store { return &Store{} }

func newFrame() *Frame {
	f := &Frame{}
	f.buf.Store((*page)(GetZeroedPage()))
	return f
}

// Frame returns the frame for page p, creating it zeroed if absent.
func (s *Store) Frame(p memsim.PageID) *Frame { return s.frames.GetOrCreate(p, newFrame) }

// Pages returns the resident page ids in ascending order. Checkpoint
// capture walks this list so snapshots are position-deterministic.
func (s *Store) Pages() []memsim.PageID {
	var out []memsim.PageID
	s.frames.Range(func(p memsim.PageID, _ *Frame) { out = append(out, p) })
	return out
}

// CopyFrame copies page p's bytes into dst under the frame mutex,
// returning false if the page is not resident. It serves swdsm's stores,
// where every protocol mutation of a frame (diff application, home write,
// migration install) also holds Frame.Mu, so the copy observes each frame
// either entirely before or entirely after any concurrent protocol write
// — the property the checkpoint capture path depends on. hybriddsm's
// frames, stored without Mu, are never copied through it.
func (s *Store) CopyFrame(p memsim.PageID, dst []byte) bool {
	f := s.frames.Get(p)
	if f == nil {
		return false
	}
	f.Mu.Lock()
	copy(dst, f.Bytes())
	f.Mu.Unlock()
	return true
}

// Drop removes a page's frame (home migration gives up the authoritative
// copy). Returns the dropped frame's data, or nil if absent; the caller
// owns it from then on.
func (s *Store) Drop(p memsim.PageID) []byte {
	if f := s.frames.Drop(p); f != nil {
		return f.Bytes()
	}
	return nil
}

// Close drops every frame and hands its buffer back to the page list.
// Call at quiescence only: nobody may hold a frame of this store. A
// second Close finds the store empty.
func (s *Store) Close() {
	s.frames.Range(func(p memsim.PageID, _ *Frame) {
		if f := s.frames.Drop(p); f != nil {
			PutPage(f.Bytes())
		}
	})
}
