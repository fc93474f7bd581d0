package cluster_test

import (
	"strings"
	"testing"

	"hamster/internal/cluster"
	"hamster/internal/core"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/simnet"
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
