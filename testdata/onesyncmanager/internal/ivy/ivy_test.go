package ivy

import "hamster/internal/hsync"

var testTree = hsync.NewTree(16, hsync.Topology{})
