package serve

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hamster/internal/memsim"
)

// renderNodeSection renders one node's serve activity for
// Monitor.Report: the hot-shard ranking (with the backing page ids)
// and the lock-contention picture, so skew is visible without a trace
// viewer.
func renderNodeSection(cfg Config, l *layout, nr *NodeResult) string {
	var b strings.Builder
	if nr.Routed == 0 && nr.Applied == 0 {
		fmt.Fprintf(&b, "  serve: %s workload, no activity on this node\n", cfg.Workload)
		return b.String()
	}
	fmt.Fprintf(&b, "  serve: %s workload  routed %d  applied %d  stalled %d\n",
		cfg.Workload, nr.Routed, nr.Applied, nr.Stalled)
	if nr.Hist.Count() > 0 {
		fmt.Fprintf(&b, "    latency p50/p95/p99 %d/%d/%d ns  busy %d ns\n",
			nr.Hist.Quantile(0.50), nr.Hist.Quantile(0.95), nr.Hist.Quantile(0.99), nr.BusyNs)
	}
	if nr.LockWaitNs > 0 {
		per := uint64(0)
		if nr.Applied > 0 {
			per = nr.LockWaitNs / nr.Applied
		}
		fmt.Fprintf(&b, "    lock contention: %d ns total latch wait (%d ns/op)\n", nr.LockWaitNs, per)
	}
	type hot struct {
		shard int
		ops   uint64
	}
	var hots []hot
	for s, n := range nr.ShardOps {
		if n > 0 {
			hots = append(hots, hot{s, n})
		}
	}
	slices.SortFunc(hots, func(a, b hot) int {
		return cmp.Or(cmp.Compare(b.ops, a.ops), cmp.Compare(a.shard, b.shard))
	})
	if len(hots) > 5 {
		hots = hots[:5]
	}
	for _, h := range hots {
		avg := uint64(0)
		if h.ops > 0 {
			avg = nr.ShardSvcNs[h.shard] / h.ops
		}
		fmt.Fprintf(&b, "    hot shard %2d (page %d, home %d): %d ops, %d ns/op\n",
			h.shard, memsim.PageOf(l.kv)+memsim.PageID(h.shard), l.shardHome(h.shard), h.ops, avg)
	}
	return b.String()
}
