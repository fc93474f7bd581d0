package bench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// The block accessors are a wall-clock fast path only: they must charge
// exactly the virtual time, produce exactly the memory contents, and count
// exactly the protocol events (faults, twins, diffs, misses) of the
// equivalent per-word loop. This property test drives two fresh instances
// of every substrate through the same random access program — one through
// the block API, one through per-word loops — and requires clocks, stats,
// read values, and final memory to be identical.

const (
	equivNodes   = 4
	equivPageWds = memsim.PageSize / memsim.WordSize
)

// equivOp is one step of a generated access program.
type equivOp struct {
	node  int
	start int // word index into the combined regions
	words int
	kind  int // 0 ReadF64, 1 WriteF64, 2 ReadI64, 3 WriteI64, 4 Fence
}

// genEquivOps derives a deterministic access program from one seed. Spans
// are up to three pages long so they cross page boundaries, and start
// anywhere, so they hit remote homes (Block/Cyclic placement over 4 nodes)
// — on swdsm that includes remote-fetch spans and multi-writer diffs.
func genEquivOps(rng *rand.Rand, totalWords int) []equivOp {
	ops := make([]equivOp, 0, 48)
	for i := 0; i < 40; i++ {
		if rng.Intn(8) == 0 {
			ops = append(ops, equivOp{node: rng.Intn(equivNodes), kind: 4})
			continue
		}
		start := rng.Intn(totalWords - 1)
		max := totalWords - start
		if max > 3*equivPageWds {
			max = 3 * equivPageWds
		}
		ops = append(ops, equivOp{
			node:  rng.Intn(equivNodes),
			start: start,
			words: 1 + rng.Intn(max),
			kind:  rng.Intn(4),
		})
	}
	return ops
}

// buildEquivSub constructs a fresh substrate. The multidsm instance routes
// the two test regions to different engines, so block spans crossing the
// region boundary exercise the engine-split path.
func buildEquivSub(t *testing.T, kind string) platform.Substrate {
	t.Helper()
	var (
		sub platform.Substrate
		err error
	)
	switch kind {
	case "smp":
		sub, err = smp.New(smp.Config{CPUs: equivNodes})
	case "hybrid":
		sub, err = hybriddsm.New(hybriddsm.Config{Nodes: equivNodes})
	case "swdsm":
		sub, err = swdsm.New(swdsm.Config{Nodes: equivNodes})
	case "ivy":
		sub, err = ivy.New(ivy.Config{Nodes: equivNodes})
	case "multi":
		sub, err = multidsm.New(multidsm.Config{
			Nodes:         equivNodes,
			PolicyRoutes:  map[memsim.Policy]multidsm.Engine{memsim.Cyclic: multidsm.Hybrid},
			DefaultEngine: multidsm.SW,
		})
	default:
		t.Fatalf("unknown substrate kind %q", kind)
	}
	if err != nil {
		t.Fatalf("build %s: %v", kind, err)
	}
	return sub
}

// runEquivProgram executes the program on sub and returns every value read,
// plus a final word-by-word dump of both regions (after fencing all nodes,
// so swdsm diffs are home). Reads are logged as raw bits so F64 and I64
// paths share one log.
func runEquivProgram(sub platform.Substrate, ops []equivOp, useBlocks bool) []uint64 {
	rA, err := sub.Alloc(4*memsim.PageSize, "equiv.A", memsim.Block, 0)
	if err != nil {
		panic(err)
	}
	rB, err := sub.Alloc(4*memsim.PageSize, "equiv.B", memsim.Cyclic, 0)
	if err != nil {
		panic(err)
	}
	if rB.Base != rA.End() {
		panic("equiv regions not adjacent")
	}
	base := rA.Base
	totalWords := int((rA.Size + rB.Size) / memsim.WordSize)

	var log []uint64
	addr := func(w int) memsim.Addr { return base + memsim.Addr(w*memsim.WordSize) }
	for oi, op := range ops {
		switch op.kind {
		case 4:
			sub.Fence(op.node)
		case 0:
			if useBlocks {
				dst := make([]float64, op.words)
				sub.ReadF64Block(op.node, addr(op.start), dst)
				for _, v := range dst {
					log = append(log, math.Float64bits(v))
				}
			} else {
				for i := 0; i < op.words; i++ {
					log = append(log, math.Float64bits(sub.ReadF64(op.node, addr(op.start+i))))
				}
			}
		case 1:
			if useBlocks {
				src := make([]float64, op.words)
				for i := range src {
					src[i] = float64(oi*1000 + i)
				}
				sub.WriteF64Block(op.node, addr(op.start), src)
			} else {
				for i := 0; i < op.words; i++ {
					sub.WriteF64(op.node, addr(op.start+i), float64(oi*1000+i))
				}
			}
		case 2:
			if useBlocks {
				dst := make([]int64, op.words)
				sub.ReadI64Block(op.node, addr(op.start), dst)
				for _, v := range dst {
					log = append(log, uint64(v))
				}
			} else {
				for i := 0; i < op.words; i++ {
					log = append(log, uint64(sub.ReadI64(op.node, addr(op.start+i))))
				}
			}
		case 3:
			if useBlocks {
				src := make([]int64, op.words)
				for i := range src {
					src[i] = int64(oi*1000 + i)
				}
				sub.WriteI64Block(op.node, addr(op.start), src)
			} else {
				for i := 0; i < op.words; i++ {
					sub.WriteI64(op.node, addr(op.start+i), int64(oi*1000+i))
				}
			}
		}
	}
	for id := 0; id < equivNodes; id++ {
		sub.Fence(id)
	}
	for w := 0; w < totalWords; w++ {
		log = append(log, uint64(sub.ReadI64(0, addr(w))))
	}
	return log
}

// normStats clears the counters that intentionally differ between the two
// paths: BlockReads/BlockWrites count API calls, not accesses.
func normStats(s platform.Stats) platform.Stats {
	s.BlockReads = 0
	s.BlockWrites = 0
	return s
}

func checkBlockWordEquivalence(t *testing.T, kind string, seed int64) error {
	ops := genEquivOps(rand.New(rand.NewSource(seed)), 8*equivPageWds)

	blockSub := buildEquivSub(t, kind)
	defer blockSub.Close()
	wordSub := buildEquivSub(t, kind)
	defer wordSub.Close()

	blockLog := runEquivProgram(blockSub, ops, true)
	wordLog := runEquivProgram(wordSub, ops, false)

	if len(blockLog) != len(wordLog) {
		return fmt.Errorf("seed %d: read-log length %d (block) vs %d (word)",
			seed, len(blockLog), len(wordLog))
	}
	for i := range blockLog {
		if blockLog[i] != wordLog[i] {
			return fmt.Errorf("seed %d: read/memory word %d: %#x (block) vs %#x (word)",
				seed, i, blockLog[i], wordLog[i])
		}
	}
	for id := 0; id < equivNodes; id++ {
		bt, wt := blockSub.Clock(id).Now(), wordSub.Clock(id).Now()
		if bt != wt {
			return fmt.Errorf("seed %d: node %d virtual time %v (block) vs %v (word)",
				seed, id, bt, wt)
		}
		bs, ws := normStats(blockSub.NodeStats(id)), normStats(wordSub.NodeStats(id))
		if bs != ws {
			return fmt.Errorf("seed %d: node %d stats differ:\nblock: %+v\nword:  %+v",
				seed, id, bs, ws)
		}
	}
	return nil
}

// TestBlockWordEquivalence is the cross-substrate property test: for
// random access programs, the block API and the per-word loop are
// indistinguishable in everything but wall-clock.
func TestBlockWordEquivalence(t *testing.T) {
	for _, kind := range []string{"smp", "hybrid", "swdsm", "ivy", "multi"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cfg := &quick.Config{
				MaxCount: 20,
				Rand:     rand.New(rand.NewSource(42)),
			}
			if err := quick.Check(func(seed int64) bool {
				if err := checkBlockWordEquivalence(t, kind, seed); err != nil {
					t.Error(err)
					return false
				}
				return true
			}, cfg); err != nil {
				t.Fatalf("equivalence property failed: %v", err)
			}
		})
	}
}
