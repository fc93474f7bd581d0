package swdsm

// Checkpoint provider surface: the structural interface the checkpoint
// coordinator (internal/checkpoint) captures and restores a DSM through.
// This file implements it using only memsim/pagestore/builtin types so
// the dependency points one way — checkpoint imports swdsm (for the
// exported diff codec), never the reverse.
//
// Capture runs at a barrier, i.e. at quiescence: every twin has been
// flushed, every diff applied, so the home frames ARE the global memory
// image (the consistent-cut argument of DESIGN.md §5c). The per-frame
// mutexes still guard every copy because commit traffic of other nodes'
// captures may steal handler time concurrently.

import (
	"slices"

	"hamster/internal/memsim"
	"hamster/internal/pagestore"
)

// CheckpointPages returns the node's resident home pages in ascending
// order — the capture walk order, so snapshot layout is deterministic.
func (d *DSM) CheckpointPages(node int) []memsim.PageID {
	return d.access(node).home.Pages()
}

// ReadPage copies a home frame into dst under the frame mutex. Returns
// false when the page is not resident at this node (e.g. its home
// migrated away since the caller enumerated pages).
func (d *DSM) ReadPage(node int, p memsim.PageID, dst []byte) bool {
	return d.access(node).home.CopyFrame(p, dst)
}

// WritePage installs page bytes into the node's home store (restore
// path; the frame is created if absent). Does not mark checkpoint dirt:
// restored bytes are the new incremental baseline, not a mutation.
func (d *DSM) WritePage(node int, p memsim.PageID, src []byte) {
	hp := d.access(node).home.Frame(p)
	hp.Mu.Lock()
	copy(hp.Bytes(), src)
	hp.Mu.Unlock()
}

// CachedPages returns the node's cached (non-home) page ids in ascending
// order. At a barrier every surviving cached copy is clean and equal to
// its home frame, so ids alone fully describe the cache.
func (d *DSM) CachedPages(node int) []memsim.PageID {
	n := d.access(node)
	out := make([]memsim.PageID, 0, len(n.cache))
	for p := range n.cache {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// RestoreCached repopulates the node's page cache from the current home
// frames (restore path, before any node goroutine runs). Pages whose
// home is now this node, or whose frame does not exist anywhere, are
// skipped; the capacity cap is respected.
func (d *DSM) RestoreCached(node int, pages []memsim.PageID) {
	n := d.access(node)
	// The rebuilt cache has no speculative history: a stale prefetch
	// pending set would misattribute post-restore evictions as waste.
	n.resetPrefetch()
	for _, p := range pages {
		if len(n.cache) >= d.cacheCap {
			return
		}
		home := d.Mem.Home(p)
		if home == memsim.NoHome || home == n.id {
			continue
		}
		data := pagestore.GetPage()
		if !d.access(home).home.CopyFrame(p, data) {
			pagestore.PutPage(data)
			continue
		}
		cp := cpagePool.Get()
		cp.Data = data
		cp.Page = p
		n.lru.PushFront(cp)
		n.cache[p] = cp
	}
}

// DirtyPages returns (and clears) the set of home pages mutated since
// the last call, in ascending order — the incremental capture list.
func (d *DSM) DirtyPages(node int) []memsim.PageID {
	n := d.access(node)
	n.ckptMu.Lock()
	out := make([]memsim.PageID, 0, len(n.ckptDirty))
	for p := range n.ckptDirty {
		out = append(out, p)
	}
	n.ckptDirty = nil
	n.ckptMu.Unlock()
	slices.Sort(out)
	return out
}

// SetCheckpointTracking toggles dirty-page tracking. Tracking is pure
// real-time bookkeeping: it never advances a virtual clock, so enabling
// it cannot perturb modeled times.
func (d *DSM) SetCheckpointTracking(on bool) { d.ckptTrack.Store(on) }
