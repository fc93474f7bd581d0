// Package serve is the server-shaped workload family (ROADMAP item 3):
// a sharded key-value store, a producer-consumer event pipeline, and a
// multi-client sync/replication scenario — all laid out on DSM pages and
// driven by a deterministic open-loop load generator (internal/loadgen)
// that multiplexes millions of lightweight simulated client sessions
// onto the node goroutines.
//
// Unlike the HPC kernels in internal/apps, these workloads stress locks,
// contention, skew, churn, and crash recovery under load. They are
// written against the same apps.Machine interface, so the identical
// workload code runs on every substrate (smp/hybriddsm/swdsm/ivy) and
// consistency engine, bare or through the HAMSTER core services — the
// paper's portability claim under serving traffic instead of SOR sweeps.
//
// # Execution model
//
// A run is a sequence of rounds, each three barrier-separated phases:
//
//	route:  producers drain their Poisson arrival streams up to the
//	        round's window end, pick keys by Zipfian popularity, and
//	        write the ops into bounded SPSC ring buffers in shared
//	        memory (one ring per producer/consumer pair, pages homed at
//	        the consumer). Full rings exert backpressure: overflow ops
//	        carry over to the next round and are counted as stalls.
//	        The route phase also drains the previous round's dirty-
//	        shard latches (one lock acquire/release per dirtied shard
//	        through the ordinary lock/hsync tier — the batch-latching
//	        discipline of a real shard server).
//	ingest: consumers read the producers' publication cursors, fetch
//	        the new ring slots, and merge all producers' ops into one
//	        queue ordered by (arrival time, producer) — a total order,
//	        since each producer's arrivals strictly increase.
//	apply:  consumers execute the merged ops against their own shard
//	        pages. Every page touched here is home-local by layout, so
//	        the phase is communication-free on every substrate; the
//	        per-op service times measured inside it are bit-identical
//	        across schedules, which is what makes the latency
//	        histograms a regression instrument.
//
// Per-op latency uses a single-server queue model per consumer:
// start = max(queue-free time, arrival + routing hop), done = start +
// measured virtual service time; latency = done − arrival. Offered load
// comes from the configured arrival rate; achieved load is applied ops
// over the busy horizon — the two diverge exactly when skew saturates a
// hot shard's home node.
//
// # Determinism
//
// Every draw comes from seeded SplitMix64 streams; arrivals, keys, and
// session ids are pure functions of (seed, node, draw index). Apply
// order is a deterministic merge; service times are measured in a
// communication-free phase; the final checksum folds shard pages and
// the loser digest with order-independent (commutative) update rules,
// so it is identical across substrates, engines, schedules, and
// crash/recovery — the conformance and fault tests assert exactly that.
package serve

import (
	"fmt"
	"math"

	"hamster/internal/apps"
	"hamster/internal/memsim"
)

// Workload names.
const (
	// WorkloadKV is the sharded key-value store: every node produces
	// and consumes; ops are Get (50%), Put (40%), Scan (10%).
	WorkloadKV = "kv"
	// WorkloadPipeline is the event pipeline: the first half of the
	// nodes produce, the rest consume; every op is a published event.
	WorkloadPipeline = "pipeline"
	// WorkloadSyncLog is the multi-client sync engine: sessions push
	// (60%) and pull (40%) entity versions; pushes merge last-write-
	// wins by (timestamp, session) with losing versions preserved in a
	// bounded loser ring and a commutative loser digest.
	WorkloadSyncLog = "synclog"
)

// workloads lists the valid Workload values.
var workloads = []string{WorkloadKV, WorkloadPipeline, WorkloadSyncLog}

// Fixed layout parameters. A shard is exactly one page: 128 slots of 4
// words (key-slot identity is positional). Ring slots are 4 words too.
const (
	slotWords = 4
	// slotsPerShard is how many key slots one shard page holds.
	slotsPerShard = memsim.PageSize / (8 * slotWords)
	ringSlotBytes = 8 * slotWords
	// ringSlots bounds each producer→consumer ring: two whole pages.
	ringSlots = 256
	ringBytes = ringSlots * ringSlotBytes
	// maxShardsPerNode caps the shards a node homes; fewer when the
	// cluster is large, so every shard keeps a private latch in the lock
	// table.
	maxShardsPerNode = 8

	// routeFlops/applyFlops model the CPU cost of parsing a request and
	// executing it against the store.
	routeFlops = 32
	applyFlops = 64
	// pipeHopNs is the modeled routing hop between a client's arrival
	// and the earliest moment its op can start service.
	pipeHopNs = 2000
)

// Op kinds, carried in ring slots.
const (
	opGet = iota
	opPut
	opScan
	opPush
	opPull
	opEvent
)

// scanSlots is how many consecutive slots a Scan reads.
const scanSlots = 8

// Config parameterizes one serve run. The zero value is not runnable;
// use WithDefaults to fill unset fields for a given node count.
type Config struct {
	// Workload is one of Workloads.
	Workload string
	// Sessions is the simulated client-session population, spread
	// evenly over the producer nodes. Session ids attach to ops; the
	// run reports how many distinct sessions issued traffic.
	Sessions uint64
	// Windows is how many arrival windows producers generate traffic
	// for; draining backpressure carryover may add a few extra rounds.
	Windows int
	// WindowNs is the width of one arrival window in virtual ns.
	WindowNs uint64
	// MeanGapNs is the mean inter-arrival gap of one producer node's
	// merged session stream (open-loop offered load = producers/gap).
	MeanGapNs float64
	// ZipfSkew shapes key popularity: 0 = uniform, ~0.99 = the
	// standard serving-benchmark hot-key skew.
	ZipfSkew float64
	// Seed feeds every generator stream.
	Seed uint64
}

// WithDefaults returns the config with unset fields filled for a cluster
// of n nodes. No default depends on n; the shard count, which does, is
// shardsPerNode's.
func (c Config) WithDefaults(n int) Config {
	if c.Workload == "" {
		c.Workload = WorkloadKV
	}
	if c.Windows == 0 {
		c.Windows = 24
	}
	if c.WindowNs == 0 {
		c.WindowNs = 500_000
	}
	if c.MeanGapNs == 0 {
		c.MeanGapNs = 4000
	}
	if c.Sessions == 0 {
		c.Sessions = 100_000
	}
	return c
}

// Validate rejects configurations the fabric cannot run on n nodes,
// with messages precise enough to act on.
func (c Config) Validate(n int) error {
	ok := false
	for _, w := range workloads {
		if c.Workload == w {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("serve: unknown workload %q (want one of %v)", c.Workload, workloads)
	}
	if n < 2 {
		return fmt.Errorf("serve: need at least 2 nodes, have %d", n)
	}
	if n > apps.LockTableSize {
		return fmt.Errorf("serve: %d nodes exceed the %d-entry lock table — every node homes a shard, and every shard needs a private latch",
			n, apps.LockTableSize)
	}
	if !(c.ZipfSkew >= 0) || math.IsInf(c.ZipfSkew, 1) {
		return fmt.Errorf("serve: ZipfSkew must be finite and >= 0, have %v", c.ZipfSkew)
	}
	if c.Windows < 1 {
		return fmt.Errorf("serve: Windows must be >= 1, have %d", c.Windows)
	}
	if c.WindowNs < 1 {
		return fmt.Errorf("serve: WindowNs must be >= 1, have %d", c.WindowNs)
	}
	if !(c.MeanGapNs > 0) || math.IsInf(c.MeanGapNs, 1) {
		return fmt.Errorf("serve: MeanGapNs must be finite and > 0, have %v", c.MeanGapNs)
	}
	if c.Sessions < 1 {
		return fmt.Errorf("serve: Sessions must be >= 1, have %d", c.Sessions)
	}
	if c.Workload == WorkloadPipeline && n < 2 {
		return fmt.Errorf("serve: pipeline needs at least one producer and one consumer")
	}
	return nil
}

// shardsPerNode is how many shards each of n nodes homes: as many as fit
// the lock table, between 1 and maxShardsPerNode.
func shardsPerNode(n int) int {
	return max(1, min(maxShardsPerNode, apps.LockTableSize/n))
}

// producers returns how many nodes generate traffic: all of them,
// except in the pipeline workload where the first half produce and the
// rest consume.
func (c Config) producers(n int) int {
	if c.Workload == WorkloadPipeline {
		return (n + 1) / 2
	}
	return n
}

// layout is the shared-memory map of a run. All regions use Block
// placement with page counts exactly divisible by the node count, so
// the home assignment is the closed form the fabric relies on:
//
//	kv     shards pages, one shard per page; shard s homed at
//	       s/shardsPerNode — the consumer that applies its ops.
//	ring   N×N rings of ringSlots×4 words, consumer-major, so the
//	       pages of ring (p→c) are homed at consumer c.
//	wcur   one page per producer: words[0..N-1] cumulative ops written
//	       per consumer, word[N] the backpressure carryover count.
//	acur   one page per consumer: words[0..N-1] cumulative ops
//	       consumed per producer.
//	stat   one page per node for the final checksum/total exchange.
//	loser  (synclog) one page per node: a bounded ring of displaced
//	       losing versions.
type layout struct {
	nodes   int
	prods   int
	perNode int // shards per node
	shards  int
	keys    int

	kv    memsim.Addr
	ring  memsim.Addr
	wcur  memsim.Addr
	acur  memsim.Addr
	stat  memsim.Addr
	loser memsim.Addr

	// routable maps a key's shard index (key % nRoutable) to a global
	// shard id. In kv/synclog every shard is routable; in pipeline only
	// consumer-homed shards receive traffic.
	routable []int
	// keyStride scatters Zipf ranks across the key space (coprime with
	// keys), so the popularity ladder does not walk one shard.
	keyStride uint64
}

func buildLayout(c Config, n int) *layout {
	l := &layout{
		nodes:   n,
		prods:   c.producers(n),
		perNode: shardsPerNode(n),
	}
	l.shards = l.perNode * n
	for s := 0; s < l.shards; s++ {
		if c.Workload != WorkloadPipeline || l.shardHome(s) >= l.prods {
			l.routable = append(l.routable, s)
		}
	}
	l.keys = len(l.routable) * slotsPerShard
	l.keyStride = uint64(float64(l.keys)*0.6180339887) | 1
	for gcd(l.keyStride, uint64(l.keys)) != 1 {
		l.keyStride += 2
	}
	return l
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// shardHome is the node that homes (and applies) shard s.
func (l *layout) shardHome(s int) int { return s / l.perNode }

// keyFor scatters a popularity rank into the key space.
func (l *layout) keyFor(rank int) uint64 {
	return (uint64(rank) * l.keyStride) % uint64(l.keys)
}

// shardOf returns the shard and slot a key lives in.
func (l *layout) shardOf(key uint64) (shard, slot int) {
	nr := uint64(len(l.routable))
	return l.routable[key%nr], int(key / nr)
}

// Address helpers.
func (l *layout) slotAddr(shard, slot int) memsim.Addr {
	return l.kv + memsim.Addr(shard)*memsim.PageSize + memsim.Addr(slot*slotWords*8)
}

func (l *layout) ringSlot(p, c, idx int) memsim.Addr {
	return l.ring + memsim.Addr((uint64(c*l.nodes+p)*ringSlots+uint64(idx))*ringSlotBytes)
}

func (l *layout) wcurAddr(p int) memsim.Addr  { return l.wcur + memsim.Addr(p)*memsim.PageSize }
func (l *layout) acurAddr(c int) memsim.Addr  { return l.acur + memsim.Addr(c)*memsim.PageSize }
func (l *layout) statAddr(id int) memsim.Addr { return l.stat + memsim.Addr(id)*memsim.PageSize }
func (l *layout) loserAddr(id int) memsim.Addr {
	return l.loser + memsim.Addr(id)*memsim.PageSize
}

// loserSlots is how many displaced versions one node's loser ring keeps.
const loserSlots = memsim.PageSize / (8 * slotWords)

// op is one client request in flight through the fabric.
type op struct {
	key     uint64
	kind    int64
	arrival uint64
	session uint64
}
