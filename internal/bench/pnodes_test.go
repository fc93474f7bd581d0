package bench

import (
	"encoding/binary"
	"reflect"
	"testing"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/checkpoint"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// The parallel-node identity gates: Config.ParallelNodes swaps the
// free-running reference scheduler for the conservative lookahead engine
// (internal/vclock.Engine), and NOTHING modeled may move — per-node
// checksums, per-node virtual clocks, network statistics, and per-node
// perfmon event streams must be byte-identical, because the gate delays
// host-time delivery decisions without ever touching a virtual charge.
// The messaging workload pins all four observables exactly at 2, 8, and
// 64 nodes — its traffic runs entirely on the gated network, where every
// charge is a pure function of virtual time. The DSM kernels pin
// checksums exactly everywhere; their virtual times get bandHierSync,
// because the full core path carries a pre-existing scheduling-order
// wobble under EITHER scheduler (goroutine scheduling can shift a stolen
// handler charge between nodes, and above hsync.Threshold the
// distributed lock queues add the schedule-dependence documented on
// scalingCampaign).

// ringObs is every observable of one msgring run: per-node checksums and
// clocks, network totals, and per-node protocol event streams.
type ringObs struct {
	sums   []float64
	clocks []vclock.Time
	msgs   uint64
	bytes  uint64
	events [][]perfmon.Event
}

// runRingObs drives the gated user-messaging network through the same
// receive-balanced neighbor exchange as the benchmark's msgring workload, with the
// protocol event recorder on, and returns everything observable.
func runRingObs(t *testing.T, nodes, rounds int, pnodes bool) ringObs {
	t.Helper()
	rt, err := hamster.New(hamster.Config{
		Platform: hamster.SWDSM, Nodes: nodes, ParallelNodes: pnodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Perf().Enable()
	obs := ringObs{sums: make([]float64, nodes), clocks: make([]vclock.Time, nodes)}
	rt.Run(func(e *hamster.Env) {
		c := e.Cluster
		self, n := c.Self(), rt.Nodes()
		var sum float64
		for r := 0; r < rounds; r++ {
			e.Compute(uint64(64 * (self + 1)))
			buf := make([]byte, 8) // sender owns payload bytes; fresh per send
			binary.LittleEndian.PutUint64(buf, uint64(self)<<32|uint64(uint32(r)))
			c.Send((self+1)%n, uint32(r), buf)
			payload, from, ok := c.Recv(uint32(r))
			if !ok {
				return
			}
			v := binary.LittleEndian.Uint64(payload)
			sum += float64(v>>32) + float64(uint32(v))*1e-3 + float64(from)*1e-6
		}
		obs.sums[self] = sum
		obs.clocks[self] = e.Now()
	})
	obs.msgs, obs.bytes = rt.Network().TotalTraffic()
	obs.events = make([][]perfmon.Event, nodes)
	for i := 0; i < nodes; i++ {
		obs.events[i] = nodeEvents(rt.Perf(), i)
	}
	return obs
}

// runKernelObs runs one kernel through the core services and returns the
// per-node results and the cluster's virtual wall clock.
func runKernelObs(t *testing.T, nodes int, pnodes bool, kernel apps.Kernel) ([]apps.Result, vclock.Duration) {
	t.Helper()
	rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: nodes, ParallelNodes: pnodes})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res := apps.RunOnEnv(rt, kernel)
	return res, apps.MaxTotal(res)
}

// TestPNodesIdentity pins the gated scheduler bit-identical to the
// reference scheduler at 2, 8, and 64 nodes.
func TestPNodesIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size identity campaign")
	}
	for _, nodes := range []int{2, 8, 64} {
		seq := runRingObs(t, nodes, 40, false)
		par := runRingObs(t, nodes, 40, true)
		if !reflect.DeepEqual(par.sums, seq.sums) {
			t.Fatalf("%d nodes: gate moved msgring checksums:\nseq %v\npar %v", nodes, seq.sums, par.sums)
		}
		if !reflect.DeepEqual(par.clocks, seq.clocks) {
			t.Fatalf("%d nodes: gate moved msgring clocks:\nseq %v\npar %v", nodes, seq.clocks, par.clocks)
		}
		if par.msgs != seq.msgs || par.bytes != seq.bytes {
			t.Fatalf("%d nodes: gate moved traffic: %d/%d vs %d/%d",
				nodes, par.msgs, par.bytes, seq.msgs, seq.bytes)
		}
		for i := range seq.events {
			if !reflect.DeepEqual(par.events[i], seq.events[i]) {
				t.Fatalf("%d nodes: gate moved node %d's perfmon event stream (%d vs %d events)",
					nodes, i, len(par.events[i]), len(seq.events[i]))
			}
		}
	}
	kernel := func(m apps.Machine) apps.Result { return apps.SOR(m, 64, 2, true) }
	for _, nodes := range []int{2, 8, 64} {
		seqRes, seqVirt := runKernelObs(t, nodes, false, kernel)
		parRes, parVirt := runKernelObs(t, nodes, true, kernel)
		for i := range seqRes {
			if parRes[i].Check != seqRes[i].Check {
				t.Fatalf("%d nodes: gate moved node %d's kernel checksum: %v vs %v",
					nodes, i, parRes[i].Check, seqRes[i].Check)
			}
		}
		if !virtualWithin(uint64(parVirt), uint64(seqVirt), bandHierSync) {
			t.Fatalf("%d nodes: kernel virtual time outside the wobble band: %v vs %v",
				nodes, parVirt, seqVirt)
		}
	}
}

// TestPNodesFaultDeterminism pins the gated scheduler under a seeded
// 5%-drop campaign: drops and retransmissions are drawn from per-link
// seeded streams, so the parallel engine must reproduce the sequential
// run's checksum and retry count exactly (virtual time gets the core
// path's wobble band, as in TestPNodesIdentity).
func TestPNodesFaultDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded fault campaign")
	}
	kernel := func(m apps.Machine) apps.Result { return apps.SOR(m, 96, 4, true) }
	run := func(pnodes bool) (check float64, virt vclock.Duration, retries uint64) {
		rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: 8, ParallelNodes: pnodes})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.SetFaults(simnet.FaultPlan{DropProb: 0.05, Seed: 3})
		res := apps.RunOnEnv(rt, kernel)
		for i := 0; i < 8; i++ {
			r, _ := rt.AMsg().Stats(simnet.NodeID(i)).Faults()
			retries += r
		}
		return res[0].Check, apps.MaxTotal(res), retries
	}
	seqCheck, seqVirt, seqRetries := run(false)
	parCheck, parVirt, parRetries := run(true)
	if seqRetries == 0 {
		t.Fatal("5% drop campaign forced no retries — the plan did not bind")
	}
	if parCheck != seqCheck || parRetries != seqRetries ||
		!virtualWithin(uint64(parVirt), uint64(seqVirt), bandHierSync) {
		t.Fatalf("gate moved the fault campaign: check %v vs %v, virtual %v vs %v, retries %d vs %d",
			parCheck, seqCheck, parVirt, seqVirt, parRetries, seqRetries)
	}
}

// TestPNodesCrashRecoveryDeterminism pins the gated scheduler through a
// mid-traffic planned crash with checkpoint recovery: the rollback, the
// node re-admission (SetRetired/MarkDown transitions on the engine), and
// the replayed epochs must land on the sequential run's checksums and
// recovery count.
func TestPNodesCrashRecoveryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery campaign")
	}
	kernel := func(m apps.Machine) apps.Result { return apps.SOR(m, 96, 4, true) }
	base := hamster.Config{Platform: hamster.SWDSM, Nodes: 4}
	rt, err := hamster.New(base)
	if err != nil {
		t.Fatal(err)
	}
	baseVirtual := apps.MaxTotal(apps.RunOnEnv(rt, kernel))
	rt.Close()
	plan := simnet.FaultPlan{
		NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: vclock.Time(baseVirtual / 2)}},
		Recover:    true,
		Seed:       3,
	}
	run := func(pnodes bool) (check float64, recoveries int) {
		cfg := base
		cfg.ParallelNodes = pnodes
		cfg.CheckpointEvery = 2
		cfg.CheckpointIncremental = true
		cfg.CheckpointSink = checkpoint.NewMemorySink(64)
		res, rt, recs, err := apps.RunRecoverable(cfg, plan, kernel)
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
		return res[0].Check, recs
	}
	seqCheck, seqRecs := run(false)
	parCheck, parRecs := run(true)
	if seqRecs < 1 {
		t.Fatalf("planned crash needed no recovery (crash at %v)", plan.NodeFaults[0].CrashAt)
	}
	if parCheck != seqCheck || parRecs != seqRecs {
		t.Fatalf("gate moved the crash-recovery run: check %v vs %v, recoveries %d vs %d",
			parCheck, seqCheck, parRecs, seqRecs)
	}
}

// TestPNodesScaling256Identity replays the BENCH_7 headline cell
// (sor-opt, strong scaling, scope engine, flat topology, 256 nodes)
// through the core services under the parallel engine: the checksum must
// equal the committed campaign value bit for bit, and the gated run's
// virtual wall clock must sit in the same wobble band as the sequential
// one. Run by name in scripts/check.sh.
func TestPNodesScaling256Identity(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node replay")
	}
	var committed string
	for _, r := range loadArtifact(t, "BENCH_7.json").Rows {
		if r.Workload == "sor-opt" && r.Mode == "strong" && r.Platform == "scope" &&
			r.Topology == "flat" && r.Nodes == 256 {
			committed = r.Check
		}
	}
	if committed == "" {
		t.Fatal("BENCH_7.json has no sor-opt/strong/scope/flat/256 cell")
	}
	kernel := func(m apps.Machine) apps.Result { return apps.SOR(m, 256, 2, true) }
	seqRes, seqVirt := runKernelObs(t, 256, false, kernel)
	parRes, parVirt := runKernelObs(t, 256, true, kernel)
	if got := checkString(seqRes[0].Check); got != committed {
		t.Fatalf("sequential 256-node checksum no longer matches BENCH_7: %v, committed %v", got, committed)
	}
	if got := checkString(parRes[0].Check); got != committed {
		t.Fatalf("gated 256-node checksum diverged from BENCH_7: %v, committed %v", got, committed)
	}
	if !virtualWithin(uint64(parVirt), uint64(seqVirt), bandHierSync) {
		t.Fatalf("gated 256-node virtual time outside the wobble band: %v vs %v", parVirt, seqVirt)
	}
}
