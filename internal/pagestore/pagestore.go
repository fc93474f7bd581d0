// Package pagestore provides page-granular frame storage with per-page
// mutexes. DSM substrates keep each page's authoritative copy in such a
// store: the owning node accesses it while protocol handlers (page
// fetches, diff application, remote writes) run on other goroutines, and
// the per-page mutex keeps those byte-range accesses coherent even under
// page-level false sharing, which is legal in data-race-free programs.
// A frame publishes its buffer through an atomic pointer, so a substrate
// whose handlers replace a frame's buffer instead of writing it (swdsm's
// diffs) lets the owner read without the mutex; one whose peers write
// frames in place (hybriddsm's PIO stores) locks around every access.
package pagestore

import (
	"sync"
	"sync/atomic"

	"hamster/internal/memsim"
)

// Frame is one page frame. Every write to its bytes holds Mu, and so does
// every read that can overlap a write in place. A handler that must not
// write under a lock-free reader copies the bytes into a fresh buffer,
// changes the copy and publishes it with Replace; the reader keeps
// whichever buffer it loaded, which nobody writes again.
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
// returning false if the page is not resident. Because every protocol
// mutation of a frame (diff application, remote write, migration install)
// also holds Frame.Mu, the copy observes each frame either entirely
// before or entirely after any concurrent protocol write — the property
// the checkpoint capture path depends on.
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
