package pagestore

import "testing"

// CheckReturns turns on the list's duplicate check until t ends: a buffer
// returned twice panics. The function it returns reports how many buffers
// were taken since and not returned.
func CheckReturns(t testing.TB) (outstanding func() int) {
	pages.mu.Lock()
	r := &returns{onList: make(map[*page]bool, len(pages.free))}
	for _, b := range pages.free {
		r.onList[b] = true
	}
	pages.check = r
	pages.mu.Unlock()
	t.Cleanup(func() {
		pages.mu.Lock()
		pages.check = nil
		pages.mu.Unlock()
	})
	return func() int {
		pages.mu.Lock()
		defer pages.mu.Unlock()
		return r.out
	}
}
