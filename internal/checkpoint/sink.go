package checkpoint

import "sync"

// Sink stores sealed snapshots. Append is called by the coordinator node
// at seal time; Chain returns the retained snapshots oldest-first, always
// including an unbroken delta chain anchored at a full snapshot.
type Sink interface {
	Append(*Snapshot) error
	Chain() []*Snapshot
}

// DefaultKeep is the in-memory ring depth when a MemorySink is built
// with keep <= 0.
const DefaultKeep = 4

// MemorySink retains the last K epochs in memory. Eviction never breaks
// a chain: only snapshots strictly older than the latest full snapshot
// are dropped, so Chain always materializes.
type MemorySink struct {
	mu    sync.Mutex
	keep  int
	snaps []*Snapshot
}

// NewMemorySink builds a ring keeping at least keep epochs (<= 0 selects
// DefaultKeep).
func NewMemorySink(keep int) *MemorySink {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &MemorySink{keep: keep}
}

// Append implements Sink.
func (s *MemorySink) Append(sn *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps = append(s.snaps, sn)
	lastFull := -1
	for i, x := range s.snaps {
		if !x.Incremental {
			lastFull = i
		}
	}
	for len(s.snaps) > s.keep && lastFull > 0 {
		s.snaps = s.snaps[1:]
		lastFull--
	}
	return nil
}

// Chain implements Sink.
func (s *MemorySink) Chain() []*Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Snapshot(nil), s.snaps...)
}
