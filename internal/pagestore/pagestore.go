// Package pagestore provides page-granular frame storage with per-page
// mutexes. DSM substrates keep each page's authoritative copy in such a
// store: the owning node accesses it in place while protocol handlers
// (page fetches, diff application, remote writes) run on other goroutines,
// and the per-page mutex keeps those byte-range accesses coherent even
// under page-level false sharing, which is legal in data-race-free
// programs.
package pagestore

import (
	"sync"

	"hamster/internal/memsim"
)

// Frame is one page frame. Lock Mu around any access to Data that can
// overlap a protocol handler's access.
type Frame struct {
	Mu   sync.Mutex
	Data []byte
}

// Store maps pages to frames, allocating zeroed frames lazily. Lookups are
// memsim.Table's atomic loads; any goroutine may create a frame (first
// touch) and only home migration drops one.
type Store struct {
	frames memsim.Table[Frame]
}

// New returns an empty store.
func New() *Store { return &Store{} }

func newFrame() *Frame { return &Frame{Data: GetZeroedPage()} }

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
	copy(dst, f.Data)
	f.Mu.Unlock()
	return true
}

// Drop removes a page's frame (home migration gives up the authoritative
// copy). Returns the dropped frame's data, or nil if absent; the caller
// owns it from then on.
func (s *Store) Drop(p memsim.PageID) []byte {
	if f := s.frames.Drop(p); f != nil {
		return f.Data
	}
	return nil
}

// Close drops every frame and hands its buffer back to the page list.
// Call at quiescence only: nobody may hold a frame of this store. A
// second Close finds the store empty.
func (s *Store) Close() {
	s.frames.Range(func(p memsim.PageID, _ *Frame) {
		if f := s.frames.Drop(p); f != nil {
			PutPage(f.Data)
		}
	})
}
