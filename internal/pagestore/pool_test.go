package pagestore_test

import (
	"fmt"
	"sync"
	"testing"

	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/swdsm"
)

// TestPooledBufferAliasing hammers the pooled-buffer ownership chain
// documented in cache.go, through the substrate that exercises all of it: page buffers travel home → requester → cache →
// pool, twins and diffs recycle within an interval, and prefetch replies
// are carved into per-page windows of one backing array. Four nodes churn
// fetch/evict/invalidate/flush concurrently (run under -race this also
// proves no recycled buffer is touched by two owners): a writer
// continuously re-stamps a shared region with a version number under a
// lock while readers acquire the same lock and verify every sampled word
// carries one consistent, monotonically advancing version. A recycled
// buffer that were still aliased by a cache entry, a diff in flight, or a
// sibling prefetch window would surface as a torn or regressed version.
func TestPooledBufferAliasing(t *testing.T) {
	const (
		pages  = 8
		words  = 4   // sampled words per page
		rounds = 150 // writer re-stamp cycles
	)
	d, err := swdsm.New(swdsm.Config{
		Nodes:      4,
		CachePages: 4, // < pages: every scan evicts, retiring buffers mid-use
		Aggregation: swdsm.Aggregation{
			Batch:          true,
			Prefetch:       true,
			PrefetchDegree: 4, // carved multi-page reply windows
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetCheckpointTracking(true)

	shared, err := d.Alloc(pages*memsim.PageSize, "aliasing", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	lock := d.NewLock()
	wordAddr := func(p, w int) memsim.Addr {
		return shared.Base + memsim.Addr(p*memsim.PageSize+w*memsim.WordSize)
	}

	// Seed version 0 so readers never observe uninitialized frames.
	for p := 0; p < pages; p++ {
		for w := 0; w < words; w++ {
			d.WriteF64(0, wordAddr(p, w), 0)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 4)

	// Writer: node 0 stamps every sampled word with the round number under
	// the lock. Its pages are home-local, so the remote traffic all comes
	// from the readers — exactly the fetch/invalidate/flush churn the pool
	// chain must survive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		scratch := make([]byte, memsim.PageSize)
		for v := 1; v <= rounds; v++ {
			d.Acquire(0, lock)
			for p := 0; p < pages; p++ {
				for w := 0; w < words; w++ {
					d.WriteF64(0, wordAddr(p, w), float64(v))
				}
			}
			d.Release(0, lock)
			if v%16 == 0 {
				// Checkpoint-style capture: read home frames while reader
				// releases apply diffs to them concurrently.
				for _, p := range d.CheckpointPages(0) {
					d.ReadPage(0, p, scratch)
				}
			}
		}
	}()

	// Readers: nodes 1..3 acquire the lock (invalidating their cached
	// copies), refetch the whole region — sequential scans trigger
	// prefetch runs, the small cache forces evictions — and verify all
	// sampled words agree on a single non-regressing version. Each also
	// dirties a private region so releases build twins and flush diffs.
	for nid := 1; nid <= 3; nid++ {
		priv, err := d.Alloc(2*memsim.PageSize, "priv", memsim.Fixed, 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(nid int, priv memsim.Region) {
			defer wg.Done()
			last := 0.0
			for i := 0; i < rounds; i++ {
				d.Acquire(nid, lock)
				v := d.ReadF64(nid, wordAddr(0, 0))
				for p := 0; p < pages; p++ {
					for w := 0; w < words; w++ {
						if got := d.ReadF64(nid, wordAddr(p, w)); got != v {
							errc <- errAliasing(nid, p, w, got, v)
							d.Release(nid, lock)
							return
						}
					}
				}
				if v < last {
					errc <- errRegressed(nid, v, last)
					d.Release(nid, lock)
					return
				}
				last = v
				d.WriteF64(nid, priv.Base+memsim.Addr((i%2)*memsim.PageSize), float64(i))
				d.Release(nid, lock)
				if i%32 == 31 {
					d.Fence(nid) // retire every cached buffer at once
				}
			}
		}(nid, priv)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func errAliasing(nid, p, w int, got, want float64) error {
	return fmt.Errorf("node %d: page %d word %d reads %.0f, rest of interval reads %.0f — pooled buffer aliased",
		nid, p, w, got, want)
}

func errRegressed(nid int, got, last float64) error {
	return fmt.Errorf("node %d: version regressed: read %.0f after %.0f", nid, got, last)
}

// TestPoolOnlyRecyclesWholePages: a window carved out of a larger reply
// with spare capacity behind it must never re-enter the pool — the next
// owner could reach its neighbor through the extra capacity.
func TestPoolOnlyRecyclesWholePages(t *testing.T) {
	backing := make([]byte, 2*memsim.PageSize)
	loose := backing[:memsim.PageSize] // cap reaches into the second page
	loose[0] = 0xAB
	pagestore.PutPage(loose)
	for i := 0; i < 64; i++ {
		if b := pagestore.GetPage(); &b[0] == &loose[0] {
			t.Fatal("a buffer with capacity beyond one page was pooled")
		}
	}
}

// TestLRUOrderAndEntryReset: the recency list evicts in access order and
// a retired entry comes back zeroed.
func TestLRUOrderAndEntryReset(t *testing.T) {
	var pool pagestore.EntryPool[int]
	var lru pagestore.LRU[int]
	entries := make([]*pagestore.Entry[int], 3)
	for i := range entries {
		e := pool.Get()
		e.Page, e.Ext, e.Data = memsim.PageID(i), i, pagestore.GetPage()
		lru.PushFront(e)
		entries[i] = e
	}
	lru.MoveToFront(entries[0]) // recency now 0, 2, 1
	for _, want := range []memsim.PageID{1, 2, 0} {
		victim := lru.Back()
		if victim.Page != want {
			t.Fatalf("evicting page %d, want %d", victim.Page, want)
		}
		lru.Remove(victim)
		pool.Put(victim)
		if victim.Data != nil || victim.Ext != 0 {
			t.Fatalf("retired entry keeps state: %+v", victim)
		}
	}
	if lru.Back() != nil {
		t.Fatal("list not empty after removing every entry")
	}
}
