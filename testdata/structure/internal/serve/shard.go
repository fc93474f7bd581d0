package serve

import "slices"

func keys(q []int) { slices.Sort(q) } // allowed: not the ingest
