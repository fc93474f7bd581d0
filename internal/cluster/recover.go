package cluster

// Crash recovery: the rollback half of HAMSTER's cluster control. A run
// under a fault plan with Recover set is supervised here — when a planned
// crash takes the run down, the victim is the plan's earliest remaining
// crash, the surviving state is rolled back to the last sealed checkpoint
// epoch, and a replacement node is re-admitted through the unified startup
// path: the next attempt boots via the exact same core construction as a
// fresh run, seeded with the materialized snapshot, and resumes from the
// captured barrier. Without Recover the run's failure reason is the error.

import (
	"fmt"

	"hamster/internal/checkpoint"
	"hamster/internal/core"
	"hamster/internal/simnet"
)

// RunRecoverable executes an SPMD program under a fault plan, recovering
// from planned node crashes when plan.Recover is set. setup (optional)
// runs once per boot attempt before the parallel phase — lock tables and
// other pre-run calls go there so the resumed attempt replays them; body
// is the per-node program. It returns the runtime of the successful
// attempt (for clocks, perfmon, checkpoint stats; the caller closes it)
// and how many recoveries were needed.
//
// Recovery is deterministic: the victim is the not-yet-recovered planned
// crash with the lowest crash time, the restore point is whatever the
// checkpoint sink holds (nothing sealed yet = restart from scratch), and
// the victim's crash entry is stripped from the plan so the re-admitted
// node survives the retry. Same seed, same plan → bit-identical replay.
func RunRecoverable(cfg core.Config, plan simnet.FaultPlan, setup func(*core.Runtime), body func(*core.Env)) (*core.Runtime, int, error) {
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		// The sink must outlive each attempt's runtime, or the snapshots
		// would die with the crashed run.
		cfg.CheckpointSink = checkpoint.NewMemorySink(checkpoint.DefaultKeep)
	}
	remaining := plan
	recoveries := 0
	var rs *checkpoint.RestoreSet
	for {
		rt, err := core.NewResumed(cfg, rs)
		if err != nil {
			return nil, recoveries, err
		}
		rt.SetFaults(remaining)
		if setup != nil {
			setup(rt)
		}
		reason := runGuarded(rt, body)
		if reason == nil {
			return rt, recoveries, nil
		}
		rt.Close()
		if !remaining.Recover {
			return nil, recoveries, fmt.Errorf("cluster: run failed: %v", reason)
		}
		victim := -1
		for i, nf := range remaining.NodeFaults {
			if nf.CrashAt <= 0 {
				continue
			}
			if victim < 0 || nf.CrashAt < remaining.NodeFaults[victim].CrashAt {
				victim = i
			}
		}
		if victim < 0 {
			return nil, recoveries, fmt.Errorf("cluster: run failed with no planned crash left to recover from: %v", reason)
		}
		if cfg.CheckpointSink != nil {
			rs, err = checkpoint.Materialize(cfg.CheckpointSink.Chain())
			if err != nil {
				return nil, recoveries, err
			}
		}
		// Strip the consumed crash; the re-admitted replacement node keeps
		// the plan's remaining faults (slow factors, link faults, later
		// crashes of other nodes).
		nf := append([]simnet.NodeFault(nil), remaining.NodeFaults[:victim]...)
		remaining.NodeFaults = append(nf, remaining.NodeFaults[victim+1:]...)
		recoveries++
	}
}

// runGuarded runs the SPMD body and converts the run's first panic (a
// planned crash surfaces as one) into a value.
func runGuarded(rt *core.Runtime, body func(*core.Env)) (reason any) {
	defer func() { reason = recover() }()
	rt.Run(body)
	return nil
}
