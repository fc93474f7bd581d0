package serve

import (
	"fmt"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/loadgen"
	"hamster/internal/platform"
	"hamster/internal/simnet"
)

// Report is the aggregate outcome of one serve run. Every field is a
// deterministic function of the configuration and seed: the latency
// quantiles come from the merged per-consumer histograms, the busy
// horizon from the queue model, and the checksum from the store pages —
// none of them depend on goroutine scheduling, which is what lets the
// campaign pin these values byte-for-byte.
type Report struct {
	Cfg     Config
	Nodes   int
	PerNode []NodeResult

	Checksum uint64
	Routed   uint64
	Applied  uint64
	Stalled  uint64
	// Sessions is how many distinct client sessions issued traffic.
	Sessions uint64

	// OfferedPerSec is the configured open-loop arrival rate;
	// AchievedPerSec is applied ops over the busy horizon. They diverge
	// when a hot node's backlog outgrows the arrival horizon.
	OfferedPerSec  float64
	AchievedPerSec float64

	MeanNs uint64
	P50Ns  uint64
	P95Ns  uint64
	P99Ns  uint64

	// HorizonNs is the arrival horizon (windows × width); MaxBusyNs the
	// latest modeled completion across consumers.
	HorizonNs uint64
	MaxBusyNs uint64
}

// buildReport aggregates and cross-checks per-node results: every node
// must have computed the identical global checksum and totals, and every
// routed op must have been applied.
func buildReport(cfg Config, rows []NodeResult) (*Report, error) {
	r := &Report{Cfg: cfg, Nodes: len(rows), PerNode: rows}
	var hist loadgen.Hist
	for i := range rows {
		nr := &rows[i]
		if nr.Checksum != rows[0].Checksum {
			return nil, fmt.Errorf("serve: node %d checksum %#x disagrees with node 0's %#x",
				nr.Node, nr.Checksum, rows[0].Checksum)
		}
		if nr.TotalApplied != rows[0].TotalApplied || nr.TotalRouted != rows[0].TotalRouted {
			return nil, fmt.Errorf("serve: node %d global totals disagree with node 0's", nr.Node)
		}
		hist.Merge(&nr.Hist)
		if nr.BusyNs > r.MaxBusyNs {
			r.MaxBusyNs = nr.BusyNs
		}
	}
	r.Checksum = rows[0].Checksum
	r.Routed = rows[0].TotalRouted
	r.Applied = rows[0].TotalApplied
	r.Stalled = rows[0].TotalStalled
	r.Sessions = rows[0].TotalSessions
	if r.Applied != r.Routed {
		return nil, fmt.Errorf("serve: %d ops routed but %d applied — fabric lost or duplicated work",
			r.Routed, r.Applied)
	}
	r.MeanNs = hist.Mean()
	r.P50Ns = hist.Quantile(0.50)
	r.P95Ns = hist.Quantile(0.95)
	r.P99Ns = hist.Quantile(0.99)
	r.HorizonNs = uint64(cfg.Windows) * cfg.WindowNs
	r.OfferedPerSec = float64(cfg.producers(len(rows))) / cfg.MeanGapNs * 1e9
	denom := max(r.HorizonNs, r.MaxBusyNs)
	if denom > 0 {
		r.AchievedPerSec = float64(r.Applied) / float64(denom) * 1e9
	}
	return r, nil
}

// RunOnSubstrate executes the workload directly on a bare substrate —
// any platform.Substrate, including the bare consistency-engine
// clusters the campaigns build.
func RunOnSubstrate(cfg Config, sub platform.Substrate) (*Report, error) {
	cfg = cfg.WithDefaults(sub.Nodes())
	if err := cfg.Validate(sub.Nodes()); err != nil {
		return nil, err
	}
	rows := make([]NodeResult, sub.Nodes())
	apps.RunOnSubstrate(sub, Kernel(cfg, rows))
	return buildReport(cfg, rows)
}

// RunOnRuntime executes the workload through the HAMSTER core services.
// The monitor gains per-shard serve sections (Monitor.Report), and the
// runtime's checkpoint service — when configured — captures the
// fabric's round-boundary state.
func RunOnRuntime(cfg Config, rt *hamster.Runtime) (*Report, error) {
	cfg = cfg.WithDefaults(rt.Nodes())
	if err := cfg.Validate(rt.Nodes()); err != nil {
		return nil, err
	}
	rows := make([]NodeResult, rt.Nodes())
	apps.RunOnEnv(rt, Kernel(cfg, rows))
	return buildReport(cfg, rows)
}

// RunRecoverable executes the workload through the core services under
// a fault plan, recovering planned mid-traffic crashes through the
// cluster orchestrator. The returned report's checksum must equal a
// fault-free run's — the fabric re-executes interrupted rounds from
// round-boundary checkpoints with commutative applies, so recovery
// shifts timing, never results.
func RunRecoverable(cfg Config, hcfg hamster.Config, plan simnet.FaultPlan) (*Report, int, error) {
	cfg = cfg.WithDefaults(hcfg.Nodes)
	if err := cfg.Validate(hcfg.Nodes); err != nil {
		return nil, 0, err
	}
	rows := make([]NodeResult, hcfg.Nodes)
	_, rt, recoveries, err := apps.RunRecoverable(hcfg, plan, Kernel(cfg, rows))
	if err != nil {
		return nil, recoveries, err
	}
	defer rt.Close()
	rep, err := buildReport(cfg, rows)
	return rep, recoveries, err
}
