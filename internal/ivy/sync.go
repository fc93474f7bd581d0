package ivy

// Fence implements platform.Substrate: a no-op — IVY is sequentially
// consistent without it.
func (d *DSM) Fence(nodeID int) {
	d.access(nodeID) // validate the node id; nothing to do
}
