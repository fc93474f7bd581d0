package cluster_test

import (
	"strings"
	"testing"

	"hamster/internal/cluster"
	"hamster/internal/core"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/simnet"
	"hamster/internal/swdsm"
)

// A planned crash without Recover fails the run with the crash as the
// whole reason. The supervisor once appended the diagnostic of a health
// monitor it never probed, so every such failure also claimed "cluster
// health: all nodes up".
func TestRunRecoverableFailureIsTheReason(t *testing.T) {
	cfg := core.Config{Platform: platform.SWDSM, Nodes: 4}
	plan := simnet.FaultPlan{NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: 2_000_000}}, Seed: 1}
	rt, recoveries, err := cluster.RunRecoverable(cfg, plan, nil, func(e *core.Env) {
		r, err := e.Mem.Alloc(memsim.PageSize, core.AllocOpts{Name: "cells", Policy: memsim.Block, Collective: true})
		if err != nil {
			panic(err)
		}
		slot := r.Base + memsim.Addr(8*e.ID())
		for phase := 0; phase < 6; phase++ {
			e.WriteF64(slot, e.ReadF64(slot)+1)
			e.Compute(500_000)
			e.Sync.Barrier()
		}
	})
	if err == nil {
		rt.Close()
		t.Fatal("a run that crashes node 1 without recovery succeeded")
	}
	if recoveries != 0 {
		t.Errorf("recoveries = %d without Recover", recoveries)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "cluster: run failed: ") || strings.Contains(msg, "cluster health") {
		t.Fatalf("error %q: want the run's failure reason and no health verdict", msg)
	}
}

// Protocol aggregation and crash recovery are refused together at the
// library entry point every recovering caller goes through, before
// anything boots.
func TestRunRecoverableRejectsAggregation(t *testing.T) {
	cfg := core.Config{Platform: platform.SWDSM, Nodes: 4, CheckpointEvery: 2, SWDSMAggregation: swdsm.Aggregation{Batch: true}}
	plan := simnet.FaultPlan{NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: 2_000_000}}, Recover: true, Seed: 1}
	ran := false
	rt, _, err := cluster.RunRecoverable(cfg, plan, nil, func(*core.Env) { ran = true })
	if err == nil {
		rt.Close()
		t.Fatal("aggregation with recovery ran")
	}
	if !strings.Contains(err.Error(), "rollback re-admission has not been qualified against batched message sequences") || ran {
		t.Fatalf("error %v (body ran: %v), want the protocol reason and nothing run", err, ran)
	}
	plan.Recover = false
	rt, _, err = cluster.RunRecoverable(cfg, plan, nil, func(*core.Env) {})
	if err != nil {
		t.Fatalf("aggregation without recovery: %v", err)
	}
	rt.Close()
}
