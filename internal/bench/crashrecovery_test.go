package bench

import (
	"testing"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/checkpoint"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// The crash-recovery acceptance run: SOR and MatMult on a 4-node software
// DSM with coordinated checkpointing. Disabled checkpointing must leave
// results untouched, enabled checkpointing must not move them, incremental
// captures must be strictly smaller than the full snapshot, a planned node
// crash under Recover must roll back and finish with the fault-free
// checksum, and a seeded recovery must replay to bit-identical results.
// Virtual-time totals on the full core path carry a pre-existing
// scheduling-order wobble of a few microseconds (present on the seed,
// without checkpointing, under -race), so the invariants here are the
// stable ones: checksums and recovery counts. The zero-cost-when-disabled
// timing guarantee is asserted on the deterministic bare-substrate path by
// TestAggregationOffIdentity against BENCH_4.json's baseline legs.
func TestCrashRecoveryKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-kernel crash-recovery campaign")
	}
	kernels := []struct {
		name   string
		every  int
		kernel apps.Kernel
	}{
		{"sor", 2, func(m apps.Machine) apps.Result { return apps.SOR(m, 96, 4, true) }},
		{"matmult", 1, func(m apps.Machine) apps.Result { return apps.MatMult(m, 48) }},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			base := hamster.Config{Platform: platform.SWDSM, Nodes: 4}
			rt, err := hamster.New(base)
			if err != nil {
				t.Fatal(err)
			}
			res := apps.RunOnEnv(rt, k.kernel)
			rt.Close()
			baseCheck, baseVirtual := res[0].Check, apps.MaxTotal(res)

			// Checkpointing disabled: the recovery path must be invisible —
			// identical checksum, zero recoveries.
			offRes, offRt, offRec, err := apps.RunRecoverable(base, simnet.FaultPlan{}, k.kernel)
			if err != nil {
				t.Fatal(err)
			}
			offRt.Close()
			if offRec != 0 || offRes[0].Check != baseCheck {
				t.Fatalf("disabled checkpointing perturbed the run: check %v vs %v, recoveries %d",
					offRes[0].Check, baseCheck, offRec)
			}

			// Checkpointing enabled, no faults: results identical, capture
			// work charged, and every incremental snapshot strictly smaller
			// than the full one it chains to.
			ckptCfg := base
			ckptCfg.CheckpointEvery = k.every
			ckptCfg.CheckpointIncremental = true
			sink := checkpoint.NewMemorySink(64)
			ckptCfg.CheckpointSink = sink
			onRes, onRt, onRec, err := apps.RunRecoverable(ckptCfg, simnet.FaultPlan{}, k.kernel)
			if err != nil {
				t.Fatal(err)
			}
			captures, capBytes := onRt.Checkpoints().Stats()
			onRt.Close()
			if onRec != 0 || onRes[0].Check != baseCheck {
				t.Fatalf("checkpointing changed the result: check %v, want %v", onRes[0].Check, baseCheck)
			}
			chain := sink.Chain()
			if len(chain) < 2 || captures != len(chain) || capBytes == 0 {
				t.Fatalf("expected a sealed chain: %d snapshots, stats %d captures / %d bytes",
					len(chain), captures, capBytes)
			}
			if chain[0].Incremental {
				t.Fatal("first snapshot is not a full capture")
			}
			full := chain[0].Bytes()
			for _, sn := range chain[1:] {
				if !sn.Incremental {
					continue
				}
				if got := sn.Bytes(); got >= full {
					t.Fatalf("incremental snapshot %d captured %d bytes, full captured %d", sn.Seq, got, full)
				}
			}

			// A planned crash of node 1 mid-run with recovery: the run must
			// roll back to the last epoch, re-admit the node, and finish
			// with the fault-free checksum.
			plan := simnet.FaultPlan{
				NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: vclock.Time(baseVirtual / 2)}},
				Recover:    true,
				Seed:       3,
			}
			recCfg := base
			recCfg.CheckpointEvery = k.every
			recCfg.CheckpointIncremental = true
			recCfg.CheckpointSink = checkpoint.NewMemorySink(64)
			recRes, recRt, recs, err := apps.RunRecoverable(recCfg, plan, k.kernel)
			if err != nil {
				t.Fatal(err)
			}
			recRt.Close()
			if recs < 1 {
				t.Fatalf("planned crash needed no recovery (crash at %v)", plan.NodeFaults[0].CrashAt)
			}
			if recRes[0].Check != baseCheck {
				t.Fatalf("recovered checksum diverged: %v, want %v", recRes[0].Check, baseCheck)
			}

			// Same seed, same plan: the whole crash-and-recover history
			// replays to bit-identical results.
			repCfg := recCfg
			repCfg.CheckpointSink = checkpoint.NewMemorySink(64)
			repRes, repRt, repRecs, err := apps.RunRecoverable(repCfg, plan, k.kernel)
			if err != nil {
				t.Fatal(err)
			}
			repRt.Close()
			if repRecs != recs || repRes[0].Check != recRes[0].Check {
				t.Fatalf("recovery replay diverged: recoveries %d vs %d, check %v vs %v",
					repRecs, recs, repRes[0].Check, recRes[0].Check)
			}
		})
	}
}
