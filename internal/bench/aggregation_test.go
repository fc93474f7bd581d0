package bench

import (
	"testing"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/hybriddsm"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// smallAggKernels are reduced workloads for the -race-friendly tests.
func smallAggKernels() []workload {
	return []workload{
		{"sor", func(m apps.Machine) apps.Result { return apps.SOR(m, 96, 4, true) }},
		{"matmult", func(m apps.Machine) apps.Result { return apps.MatMult(m, 48) }},
	}
}

// TestAggregationOffIdentity is the off-mode identity gate: with the
// zero-value Aggregation config, the protocol must cost exactly what it
// cost before the aggregation layer existed. Two committed baselines pin
// this (see artifactPins):
//
//   - BENCH_4.json's 4-node aggregation-off legs (bare substrate).
//   - BENCH_3.json's checkpoint-off legs (full core services, 2 and 4
//     nodes).
//
// Checksums are exact because aggregation-off runs the pre-aggregation
// code paths verbatim. Virtual times get bandBaseline because both paths
// carry a scheduling wobble that predates and is unrelated to
// aggregation.
func TestAggregationOffIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel set against committed baselines")
	}
	replayArtifact(t, "BENCH_4.json", nil)
	replayArtifact(t, "BENCH_3.json", nil)
}

// buildAggSub constructs a substrate with the given aggregation setting.
// SMP and the hybrid DSM have no aggregation layer — they serve as
// controls: for them "on" and "off" build identical instances, so the test
// doubles as a run-to-run determinism check.
func buildAggSub(t *testing.T, kind string, agg swdsm.Aggregation) platform.Substrate {
	t.Helper()
	var (
		sub platform.Substrate
		err error
	)
	switch kind {
	case "smp":
		sub, err = smp.New(smp.Config{CPUs: equivNodes})
	case "hybriddsm":
		sub, err = hybriddsm.New(hybriddsm.Config{Nodes: equivNodes})
	case "swdsm":
		sub, err = swdsm.New(swdsm.Config{Nodes: equivNodes, Aggregation: agg})
	default:
		t.Fatalf("unknown substrate kind %q", kind)
	}
	if err != nil {
		t.Fatalf("build %s: %v", kind, err)
	}
	return sub
}

// TestAggregationEquivalence runs the small kernels on every substrate
// with aggregation off and fully on: checksums must be bit-identical.
// Aggregation changes message economics, never results.
func TestAggregationEquivalence(t *testing.T) {
	on := swdsm.Aggregation{Batch: true, Prefetch: true}
	for _, kind := range []string{"smp", "hybriddsm", "swdsm"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for _, c := range smallAggKernels() {
				offSub := buildAggSub(t, kind, swdsm.Aggregation{})
				offCheck := apps.RunOnSubstrate(offSub, c.Kernel)[0].Check
				offSub.Close()

				onSub := buildAggSub(t, kind, on)
				onCheck := apps.RunOnSubstrate(onSub, c.Kernel)[0].Check
				onSub.Close()

				if onCheck != offCheck {
					t.Errorf("%s: aggregation moved the checksum: %v (on) vs %v (off)",
						c.Name, onCheck, offCheck)
				}
			}
		})
	}
}

// TestAggregationMessageReduction is the acceptance gate for the on mode:
// across the standard kernel suite the swdsm protocol message count must
// drop by at least 40% (it drops ~48% at 2 nodes and ~42% at 4), the
// streaming kernel individually must clear 40% (prefetch collapses its
// fault traffic), and the SOR and MatMult 4-node virtual times must
// improve measurably. Everything here is deterministic — the asserted
// margins cannot flake.
func TestAggregationMessageReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel set at two cluster sizes")
	}
	msgsOff, msgsAgg := map[int]uint64{}, map[int]uint64{}
	for _, r := range mustRun(t, mustLookup(t, "aggregation"), 0).Rows {
		off := r.Baseline
		if r.Msgs >= off.Msgs {
			t.Errorf("%s: no message reduction: %d -> %d", r.id(), off.Msgs, r.Msgs)
		}
		msgsOff[r.Nodes] += off.Msgs
		msgsAgg[r.Nodes] += r.Msgs
		if r.Workload == "stream" {
			if red := reductionPct(off.Msgs, r.Msgs); red < 40 {
				t.Errorf("%s: message reduction %.1f%% < 40%%", r.id(), red)
			}
		}
		if r.Nodes == 4 && (r.Workload == "sor-opt" || r.Workload == "matmult") {
			if speedup := reductionPct(off.VirtualNs, r.VirtualNs); speedup < 2 {
				t.Errorf("%s: virtual-time improvement %.2f%% not measurable (< 2%%)", r.id(), speedup)
			}
		}
	}
	for nodes, off := range msgsOff {
		if red := reductionPct(off, msgsAgg[nodes]); red < 40 {
			t.Errorf("suite at %d nodes: total message reduction %.1f%% < 40%% (%d -> %d)",
				nodes, red, off, msgsAgg[nodes])
		}
	}
}

func reductionPct(off, on uint64) float64 {
	return 100 * (float64(off) - float64(on)) / float64(off)
}

// TestAggregationFaultReplay re-verifies the fault-campaign determinism
// contract with aggregation on: under a seeded 5% message-drop plan the
// batched/prefetching protocol must produce the baseline checksum, force
// retransmissions, and replay bit-identically — batch contents and
// prefetch runs are pure functions of program state, so the positional
// fate draws line up on every run.
func TestAggregationFaultReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign replay")
	}
	on := swdsm.Aggregation{Batch: true, Prefetch: true}
	run := func(t *testing.T, kernel apps.Kernel, plan *simnet.FaultPlan) (check float64, virtual hamster.Duration, retries uint64) {
		d, err := swdsm.New(swdsm.Config{Nodes: 4, Aggregation: on})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if plan != nil {
			d.Layer().Network().SetFaults(*plan)
		}
		res := apps.RunOnSubstrate(d, kernel)
		for i := 0; i < 4; i++ {
			r, _ := d.Layer().Stats(simnet.NodeID(i)).Faults()
			retries += r
		}
		return res[0].Check, apps.MaxTotal(res), retries
	}
	for _, k := range smallAggKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			baseCheck, _, _ := run(t, k.Kernel, nil)
			plan := &simnet.FaultPlan{DropProb: 0.05, Seed: 3}
			check, virtual, retries := run(t, k.Kernel, plan)
			if check != baseCheck {
				t.Fatalf("5%% drop changed the result: %v, want %v", check, baseCheck)
			}
			if retries == 0 {
				t.Fatal("5% drop forced no retries")
			}
			check2, virtual2, retries2 := run(t, k.Kernel, plan)
			if check2 != check || virtual2 != virtual || retries2 != retries {
				t.Fatalf("replay diverged: virtual %v vs %v, retries %d vs %d",
					virtual2, virtual, retries2, retries)
			}
		})
	}
}

// TestAggregationCheckpointCompat runs the aggregated protocol under
// incremental checkpointing: batched diff application must feed the
// capture dirty-page tracking exactly like per-page application, so the
// checkpointed run's result matches the uncheckpointed one.
func TestAggregationCheckpointCompat(t *testing.T) {
	plain := Cluster{Platform: "swdsm", Nodes: 4, Binding: onCore,
		Aggregation: swdsm.Aggregation{Batch: true, Prefetch: true}}
	ckpt := plain
	ckpt.CheckpointEvery, ckpt.CheckpointIncremental = 2, true
	for _, c := range smallAggKernels() {
		if p, k := measureKernel(t, c.Kernel, plain), measureKernel(t, c.Kernel, ckpt); k.Check != p.Check {
			t.Errorf("%s: checkpointing under aggregation moved the checksum: %v vs %v",
				c.Name, k.Check, p.Check)
		}
	}
}
