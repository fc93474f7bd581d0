package apps

import (
	"encoding/binary"

	"hamster"
	"hamster/internal/cluster"
	"hamster/internal/core"
	"hamster/internal/simnet"
)

// Checkpointer is the optional Machine extension for application-assisted
// checkpointing: bindings over the core services expose the runtime's
// state registry, bindings over bare substrates do not. Kernels probe for
// it and run identically either way.
type Checkpointer interface {
	RegisterCheckpointable(name string, save func() []byte, restore func([]byte)) bool
}

// envMachine has it promoted from its Env; jiaMachine reaches the Env
// underneath the model.
func (m jiaMachine) RegisterCheckpointable(name string, save func() []byte, restore func([]byte)) bool {
	return m.Env().RegisterCheckpointable(name, save, restore)
}

// AddReportSection forwards workload report sections to the monitor
// (core.Env.AddReportSection). Kernels probe for the method the same
// way they probe Checkpointer; bindings over bare substrates simply
// lack it.
func (m jiaMachine) AddReportSection(title string, render func() string) {
	m.Env().AddReportSection(title, render)
}

// progress returns a phase counter registered with the machine's
// checkpoint service when it has one: snapshots capture the counter, and
// on a resumed run it starts at the captured value, letting the kernel
// skip completed phases — including their barriers, which keeps the
// resumed run's barrier numbering aligned with the original's. Without a
// checkpoint service it is a plain zero-initialized counter.
func progress(m Machine, name string) *int64 {
	p := new(int64)
	if c, ok := m.(Checkpointer); ok {
		c.RegisterCheckpointable(name,
			func() []byte {
				b := make([]byte, 8)
				binary.LittleEndian.PutUint64(b, uint64(*p))
				return b
			},
			func(b []byte) {
				if len(b) == 8 {
					*p = int64(binary.LittleEndian.Uint64(b))
				}
			})
	}
	return p
}

// RunRecoverable executes a kernel through the full core services under a
// fault plan, recovering from planned node crashes via the cluster
// orchestrator. Returns the final attempt's per-node results, its runtime
// (caller closes it), and how many recoveries the run needed.
func RunRecoverable(cfg hamster.Config, plan simnet.FaultPlan, kernel Kernel) ([]Result, *hamster.Runtime, int, error) {
	results := make([]Result, cfg.Nodes)
	var locks []int
	rt, recoveries, err := cluster.RunRecoverable(cfg, plan,
		func(rt *core.Runtime) {
			// Pre-run setup replays on every attempt; on a resumed runtime
			// NewLock hands back the restored lock table.
			locks = make([]int, LockTableSize)
			e0 := rt.Env(0)
			for i := range locks {
				locks[i] = e0.Sync.NewLock()
			}
		},
		func(e *core.Env) {
			results[e.ID()] = kernel(&envMachine{Env: e, locks: locks})
		})
	if err != nil {
		return nil, nil, recoveries, err
	}
	return results, rt, recoveries, nil
}
