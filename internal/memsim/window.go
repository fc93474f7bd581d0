package memsim

// windowSlots is the size of a Window: wide enough that a strided walk
// over a kernel's working set (MatMult's B column crosses 72 pages per
// inner loop, beside its A row and C element) keeps every page resident.
const windowSlots = 128

// Window is a node's direct-mapped cache of recently resolved page
// frames, indexed by PageID % windowSlots: a hit skips the engine's home
// lookup, page map and (where the engine can prove it safe) its lock. An
// entry is valid only while the generation it was stored under equals the
// one the lookup passes, so an engine drops every entry at once by moving
// its generation on. ONLY the owning node's goroutine may touch a Window;
// it has no synchronization of its own. The zero value is empty.
type Window[T any] struct {
	slots [windowSlots]windowSlot[T]
}

type windowSlot[T any] struct {
	key uint64 // PageID + 1; 0 marks a never-filled slot
	gen uint64
	val T
}

// Get returns the value stored for page p under generation gen, or nil.
// The pointer stays valid until the next Put that maps to the same slot.
func (w *Window[T]) Get(p PageID, gen uint64) *T {
	if s := &w.slots[p%windowSlots]; s.key == uint64(p)+1 && s.gen == gen {
		return &s.val
	}
	return nil
}

// Put stores v for page p under generation gen, replacing whatever page
// held the slot.
func (w *Window[T]) Put(p PageID, gen uint64, v T) {
	w.slots[p%windowSlots] = windowSlot[T]{key: uint64(p) + 1, gen: gen, val: v}
}
