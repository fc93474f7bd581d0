package pagestore_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/pagestore"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// TestPooledBufferAliasing runs the recycling tests: every page buffer comes
// from pagestore's one list and goes back to it, so a buffer handed back
// while somebody still reads it, or handed back twice, would give one
// owner's bytes to another. The subtests hammer the ownership chain
// documented in cache.go on the two engines that churn buffers, check
// that a runtime never sees what a closed one left in its buffers, and
// that Close hands every buffer back exactly once.
func TestPooledBufferAliasing(t *testing.T) {
	t.Run("swdsm-churn", swdsmChurn)
	t.Run("ivy-churn", ivyChurn)
	t.Run("across-runtimes", acrossRuntimes)
	t.Run("close-once", closeOnce)
}

// swdsmChurn hammers the ownership chain through the substrate that
// exercises all of it: page buffers travel home → requester → cache →
// list, twins and diffs recycle within an interval, and prefetch replies
// are carved into per-page windows of one backing array. Four nodes churn
// fetch/evict/invalidate/flush concurrently (run under -race this also
// proves no recycled buffer is touched by two owners): a writer
// continuously re-stamps a shared region with a version number under a
// lock while readers acquire the same lock and verify every sampled word
// carries one consistent, monotonically advancing version. A recycled
// buffer that were still aliased by a cache entry, a diff in flight, or a
// sibling prefetch window would surface as a torn or regressed version.
func swdsmChurn(t *testing.T) {
	const (
		pages  = 8
		words  = 4   // sampled words per page
		rounds = 150 // writer re-stamp cycles
	)
	d, err := swdsm.New(swdsm.Config{
		Nodes:      4,
		CachePages: 4, // < pages: every scan evicts, retiring buffers mid-use
		// Prefetch carves multi-page reply windows.
		Aggregation: swdsm.Aggregation{Batch: true, Prefetch: true},
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
	// from the readers — exactly the fetch/invalidate/flush churn the
	// ownership chain must survive.
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

// ivyChurn is ivy's half of the chain: copies live on the list, grants
// are built in the requester's scratch, and a copy a handler takes away
// waits on its node until that node's goroutine, which may be reading it
// without a lock, misses its window. Two writers pass ownership of every
// page back and forth under a lock, stamping each word with a version and
// its page's tag in page-major order; two readers read without a lock in
// the reverse order. Under sequential consistency a reverse scan never
// sees a version fall, and never a foreign tag: a copy recycled under a
// reader would show another page's bytes or an older version.
func ivyChurn(t *testing.T) {
	const (
		pages  = 4
		words  = 4
		rounds = 200
	)
	d, err := ivy.New(ivy.Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	shared, err := d.Alloc(pages*memsim.PageSize, "ivychurn", memsim.Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	wordAddr := func(p, w int) memsim.Addr {
		return shared.Base + memsim.Addr(p*memsim.PageSize+w*memsim.WordSize)
	}
	stamp := func(v int64, p int) int64 { return v<<8 | int64(p) }
	for p := 0; p < pages; p++ {
		for w := 0; w < words; w++ {
			d.WriteI64(0, wordAddr(p, w), stamp(0, p))
		}
	}
	lock := d.NewLock()
	var wg sync.WaitGroup
	var writers sync.WaitGroup
	var done atomic.Bool
	errc := make(chan error, 4)
	for nid := 0; nid < 2; nid++ {
		wg.Add(1)
		writers.Add(1)
		go func(nid int) {
			defer wg.Done()
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				d.Acquire(nid, lock)
				v := d.ReadI64(nid, wordAddr(0, 0))>>8 + 1
				for p := 0; p < pages; p++ {
					for w := 0; w < words; w++ {
						d.WriteI64(nid, wordAddr(p, w), stamp(v, p))
					}
				}
				d.Release(nid, lock)
			}
		}(nid)
	}
	for nid := 2; nid < 4; nid++ {
		wg.Add(1)
		go func(nid int) {
			defer wg.Done()
			for !done.Load() {
				last := int64(-1)
				for p := pages - 1; p >= 0; p-- {
					for w := words - 1; w >= 0; w-- {
						got := d.ReadI64(nid, wordAddr(p, w))
						if got&0xff != int64(p) || got>>8 < last {
							errc <- fmt.Errorf("node %d: page %d word %d reads version %d tag %d after version %d — recycled copy read",
								nid, p, w, got>>8, got&0xff, last)
							return
						}
						last = got >> 8
					}
				}
			}
		}(nid)
	}
	writers.Wait()
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// substrates builds each of the five substrates with two nodes; multidsm
// routes Cyclic regions to its software engine and Block regions to its
// hybrid one, so a test touching both kinds reaches both engines.
var substrates = []struct {
	name  string
	build func() (platform.Substrate, error)
}{
	{"swdsm", func() (platform.Substrate, error) { return swdsm.New(swdsm.Config{Nodes: 2}) }},
	{"ivy", func() (platform.Substrate, error) { return ivy.New(ivy.Config{Nodes: 2}) }},
	{"hybriddsm", func() (platform.Substrate, error) { return hybriddsm.New(hybriddsm.Config{Nodes: 2}) }},
	{"smp", func() (platform.Substrate, error) { return smp.New(smp.Config{CPUs: 2}) }},
	{"multidsm", func() (platform.Substrate, error) {
		return multidsm.New(multidsm.Config{Nodes: 2, PolicyRoutes: map[memsim.Policy]multidsm.Engine{
			memsim.Cyclic: multidsm.SW, memsim.Block: multidsm.Hybrid,
		}})
	}},
}

// stampAll has both nodes stamp every byte of every page of a Cyclic and
// a Block region and fence, then read each page often enough for the
// hybrid engine to cache it and rewrite its first word without fencing:
// home frames, cached copies and twins all hold the stamp when it
// returns.
func stampAll(t *testing.T, sub platform.Substrate, pages int, stamp byte) {
	t.Helper()
	full := bytes.Repeat([]byte{stamp}, memsim.PageSize)
	for _, pol := range []memsim.Policy{memsim.Cyclic, memsim.Block} {
		r, err := sub.Alloc(uint64(pages*memsim.PageSize), "stamp", pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < sub.Nodes(); node++ {
			sub.WriteBytes(node, r.Base, bytes.Repeat(full, pages))
		}
		for node := 0; node < sub.Nodes(); node++ {
			sub.Fence(node)
		}
		for node := 0; node < sub.Nodes(); node++ {
			for p := 0; p < pages; p++ {
				a := r.Base + memsim.Addr(p*memsim.PageSize)
				for i := 0; i < 20; i++ {
					sub.ReadF64(node, a)
				}
				sub.WriteBytes(node, a, full[:memsim.WordSize])
			}
		}
	}
}

// acrossRuntimes: runtime A stamps every page and closes, handing its
// buffers to the list; runtime B of the same substrate writes half its
// pages and must read zeros from every other page, on every node.
func acrossRuntimes(t *testing.T) {
	const pages = 4
	for _, c := range substrates {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			stampAll(t, a, pages, 0xA5)
			a.Close()

			b, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			buf := make([]byte, memsim.PageSize)
			for _, pol := range []memsim.Policy{memsim.Cyclic, memsim.Block} {
				r, err := b.Alloc(2*pages*memsim.PageSize, "fresh", pol, 0)
				if err != nil {
					t.Fatal(err)
				}
				page := func(p int) memsim.Addr { return r.Base + memsim.Addr(p*memsim.PageSize) }
				for p := 0; p < 2*pages; p += 2 {
					b.WriteF64(p/2%b.Nodes(), page(p), 1)
				}
				for node := 0; node < b.Nodes(); node++ {
					b.Fence(node)
				}
				for node := 0; node < b.Nodes(); node++ {
					for p := 1; p < 2*pages; p += 2 {
						b.ReadBytes(node, page(p), buf)
						if i := bytes.IndexFunc(buf, func(r rune) bool { return r != 0 }); i >= 0 {
							t.Fatalf("%v page %d never written reads %#x at byte %d on node %d: a closed runtime's buffer leaked through",
								pol, p, buf[i], i, node)
						}
					}
				}
			}
		})
	}
}

// closeOnce: with the list's duplicate check on, closing a substrate hands
// back every buffer it took, each once, and closing it again hands back
// nothing. multidsm's Close closes both of its engines.
func closeOnce(t *testing.T) {
	outstanding := pagestore.CheckReturns(t)
	for _, c := range substrates {
		t.Run(c.name, func(t *testing.T) {
			before := outstanding()
			sub, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			stampAll(t, sub, 4, 0x5A)
			if outstanding() == before {
				t.Fatal("the substrate took no buffer from the list")
			}
			sub.Close()
			if got := outstanding(); got != before {
				t.Fatalf("after Close %d buffers are still out, want %d", got, before)
			}
			sub.Close()
			if got := outstanding(); got != before {
				t.Fatalf("after a second Close %d buffers are out, want %d", got, before)
			}
		})
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
// with spare capacity behind it must never re-enter the list — the next
// owner could reach its neighbor through the extra capacity.
func TestPoolOnlyRecyclesWholePages(t *testing.T) {
	backing := make([]byte, 2*memsim.PageSize)
	loose := backing[:memsim.PageSize] // cap reaches into the second page
	loose[0] = 0xAB
	pagestore.PutPage(loose)
	for i := 0; i < 64; i++ {
		if b := pagestore.GetPage(); &b[0] == &loose[0] {
			t.Fatal("a buffer with capacity beyond one page went onto the list")
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
