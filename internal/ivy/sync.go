package ivy

import "hamster/internal/memsim"

// Fence implements platform.Substrate: a no-op — IVY is sequentially
// consistent without it.
func (d *DSM) Fence(nodeID int) {
	d.access(nodeID) // validate the node id; nothing to do
}

// FlushInterval implements consengine.Composable: IVY writes are
// globally visible when they perform, so an interval has no notices.
func (d *DSM) FlushInterval(nodeID int) []memsim.PageID {
	d.access(nodeID)
	return nil
}

// InvalidatePages implements consengine.Composable: foreign notices drop
// local read copies. IVY copies are never stale, so this is purely a
// courtesy to the composition layer (the copy is refetched on next use);
// owned pages are authoritative and kept.
func (d *DSM) InvalidatePages(nodeID int, pages []memsim.PageID) {
	n := d.access(nodeID)
	n.mu.Lock()
	for _, p := range pages {
		if e := n.pages[p]; e != nil && e.state == pRead {
			n.dropReadCopy(e)
			e.gen++
		}
	}
	n.mu.Unlock()
}
