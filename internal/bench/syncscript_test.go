package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// TestSyncScriptIdentity pins what the synchronization paths of every
// substrate charge, count and record, against goldens recorded before the
// five lock/barrier implementations were folded into hsync.Manager (see
// syncscript_golden_test.go). The script is contention-free by
// construction, so every observable is a pure function of the
// configuration:
//
//   - Lock phase: the nodes take turns under a host-side token, in id
//     order. A turn caches two remote pages, then does Acquire/Release, a
//     TryAcquire that succeeds, a TryAcquire that fails against a lock
//     node 0 holds for the whole phase, and a critical section whose
//     Release carries dirty pages to the next turn's Acquire. Every
//     handler charge a turn steals lands on a node that is parked waiting
//     for the token.
//   - Barrier phase: the nodes enter one barrier in descending id order,
//     each only after its predecessor's arrival charge is visible on the
//     predecessor's clock — a node's arrival interrupts its tree parent or
//     the manager, which always has a lower id, so every steal lands
//     before its victim reads its own clock. Node 0 (manager and root)
//     enters last and far ahead in virtual time, so its arrival is the
//     release time whichever side of a waiter's wakeup anything lands on.
func TestSyncScriptIdentity(t *testing.T) {
	for _, cfg := range syncScriptConfigs() {
		for _, nodes := range []int{4, 16} {
			name := fmt.Sprintf("%s/%d", cfg.name, nodes)
			t.Run(name, func(t *testing.T) {
				sub, err := cfg.build(nodes)
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				got := runSyncScript(t, sub)
				want := syncScriptGolden[name]
				if slices.Equal(got, want) {
					return
				}
				var b strings.Builder
				fmt.Fprintf(&b, "\t%q: {\n", name)
				for i, line := range got {
					mark := ""
					if i >= len(want) || want[i] != line {
						mark = " // differs"
					}
					fmt.Fprintf(&b, "\t\t%q,%s\n", line, mark)
				}
				b.WriteString("\t},\n")
				t.Errorf("observables moved against the recorded golden; got:\n%s", b.String())
			})
		}
	}
}

type syncScriptConfig struct {
	name  string
	build func(nodes int) (platform.Substrate, error)
}

// syncScriptConfigs lists every substrate and engine variant with its own
// synchronization pricing. Above 8 nodes the Ethernet substrates and
// multidsm's SAN tier are on a rack topology.
func syncScriptConfigs() []syncScriptConfig {
	topo := func(nodes int) simnet.Topology {
		if nodes <= 8 {
			return simnet.Topology{}
		}
		tp, _ := simnet.TopologyPreset(simnet.TopoRack)
		return tp
	}
	sw := func(proto swdsm.Protocol, agg swdsm.Aggregation) func(int) (platform.Substrate, error) {
		return func(nodes int) (platform.Substrate, error) {
			return swdsm.New(swdsm.Config{Nodes: nodes, Topology: topo(nodes), Protocol: proto, Aggregation: agg})
		}
	}
	multi := func(engine string) func(int) (platform.Substrate, error) {
		return func(nodes int) (platform.Substrate, error) {
			return multidsm.New(multidsm.Config{
				Nodes: nodes, Topology: topo(nodes), PageEngine: engine,
				DefaultEngine: multidsm.SW,
				PolicyRoutes:  map[memsim.Policy]multidsm.Engine{memsim.Block: multidsm.Hybrid},
			})
		}
	}
	return []syncScriptConfig{
		{"smp", func(nodes int) (platform.Substrate, error) { return smp.New(smp.Config{CPUs: nodes}) }},
		{"hybrid", func(nodes int) (platform.Substrate, error) {
			return hybriddsm.New(hybriddsm.Config{Nodes: nodes})
		}},
		{"swdsm-scope", sw(swdsm.ScopeConsistency, swdsm.Aggregation{})},
		{"swdsm-eager-rc", sw(swdsm.EagerRC, swdsm.Aggregation{})},
		{"swdsm-batch", sw(swdsm.ScopeConsistency, swdsm.Aggregation{Batch: true})},
		{"ivy", func(nodes int) (platform.Substrate, error) {
			return ivy.New(ivy.Config{Nodes: nodes, Topology: topo(nodes)})
		}},
		{"multi-scope", multi("scope")},
		{"multi-ivy", multi("ivy")},
	}
}

// runSyncScript drives the script over a fresh substrate and renders one
// line per node: clock, per-category breakdown, the four counters the
// synchronization layer feeds, and a hash of the node's event stream.
func runSyncScript(t *testing.T, sub platform.Substrate) []string {
	t.Helper()
	nodes := sub.Nodes()
	rec := perfmon.New(nodes, 1<<14)
	sub.SetRecorder(rec)
	rec.Enable()

	size := uint64(nodes) * memsim.PageSize
	shared, err := sub.Alloc(size, "shared", memsim.Cyclic, 0) // page i homed at node i
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sub.Alloc(size, "blk", memsim.Block, 0) // likewise; multidsm routes it to the SAN engine
	if err != nil {
		t.Fatal(err)
	}
	lockPlain, lockTry, lockHeld, lockData := sub.NewLock(), sub.NewLock(), sub.NewLock(), sub.NewLock()
	page := func(r memsim.Region, p, word int) memsim.Addr {
		return r.Base + memsim.Addr(p*memsim.PageSize+word*memsim.WordSize)
	}

	var (
		// turn k < nodes is node k's lock turn, turn nodes is node 0 dropping
		// the held lock, turn 2*nodes-k is node k's barrier turn.
		turn     atomic.Int64
		arrived  = make([]atomic.Uint64, nodes)
		failures atomic.Int64
		done     = make(chan struct{}, nodes)
	)
	await := func(v int64) {
		for turn.Load() != v {
			runtime.Gosched()
		}
	}
	for k := 0; k < nodes; k++ {
		go func(k int) {
			defer func() { done <- struct{}{} }()
			clk := sub.Clock(k)
			buf := make([]float64, 32)

			// Lock phase, ascending.
			await(int64(k))
			if k == 0 {
				sub.Acquire(k, lockHeld)
			}
			sub.ReadF64Block(k, page(shared, 0, 0), buf)
			sub.ReadF64Block(k, page(shared, (k+1)%nodes, 0), buf)
			sub.Acquire(k, lockPlain)
			sub.Release(k, lockPlain)
			if !sub.TryAcquire(k, lockTry) {
				failures.Add(1)
			}
			sub.Release(k, lockTry)
			if sub.TryAcquire(k, lockHeld) {
				failures.Add(1)
			}
			sub.Acquire(k, lockData)
			sub.WriteF64(k, page(shared, 0, 64+k), float64(k))
			sub.WriteF64(k, page(blk, 0, 64+k), float64(k))
			sub.Release(k, lockData)
			turn.Store(int64(k + 1))

			// Node 0 drops the held lock once every lock turn is over.
			if k == 0 {
				await(int64(nodes))
				sub.Release(k, lockHeld)
				turn.Store(int64(nodes + 1))
			}

			// Barrier phase, descending: turn 2*nodes-k belongs to node k.
			await(int64(2*nodes - k))
			if k == 0 {
				sub.Compute(k, 100_000_000)
			}
			if k < nodes-1 {
				// The predecessor charges its arrival cost to its protocol
				// bucket after every steal its arrival causes.
				for uint64(sub.Clock(k+1).Breakdown().Protocol) == arrived[k+1].Load() {
					runtime.Gosched()
				}
			}
			sub.WriteF64(k, page(shared, k, 1), float64(k)) // a home-resident notice: nothing to flush
			arrived[k].Store(uint64(clk.Breakdown().Protocol))
			turn.Store(int64(2*nodes - k + 1))
			sub.Barrier(k)
		}(k)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d TryAcquire outcomes were wrong", n)
	}

	out := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		st := sub.NodeStats(k)
		bd := sub.Clock(k).Breakdown()
		h := fnv.New64a()
		for _, ev := range rec.Events(k) {
			fmt.Fprintf(h, "%d %d %d %d %d|", ev.Kind, ev.At, ev.Dur, ev.Arg1, ev.Arg2)
		}
		out[k] = fmt.Sprintf("clock=%d compute=%d memory=%d protocol=%d network=%d stolen=%d msgs=%d locks=%d barriers=%d inval=%d events=%d:%016x",
			uint64(sub.Clock(k).Now()), bd.Compute, bd.Memory, bd.Protocol, bd.Network, bd.Stolen,
			st.ProtocolMsgs, st.LockAcquires, st.BarrierCrossings, st.Invalidations, rec.Len(k), h.Sum64())
	}
	return out
}
