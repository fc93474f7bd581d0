// Package bench is the experiment harness: every modeled experiment of
// the repository is a campaign of one registry, run by one runner and
// emitted under one schema. The paper's evaluation (§5) is two of them:
//
//   - figures: Table 1's seven workloads as JiaJia programs on six
//     clusters, from which Figure 2 (overhead of HAMSTER against native
//     JiaJia, 4 nodes), Figure 3 (Hybrid-DSM against SW-DSM, 4 nodes) and
//     Figure 4 (Hardware- vs Hybrid- vs Software-DSM, 2 nodes) are
//     derived; Table 1 is its description.
//   - ablations: the design choices DESIGN.md calls out, each as legs of
//     one program on machines that differ in that one choice.
//
// Table 2 (implementation complexity of the programming models) is
// internal/apicount's. Absolute numbers depend on the simulator's cost
// model; the reproduction target is the shape — signs, rough factors,
// crossovers (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"strconv"
	"strings"

	"hamster"
	"hamster/internal/amsg"
	"hamster/internal/apps"
	"hamster/internal/checkpoint"
	"hamster/internal/consengine"
	"hamster/internal/core"
	"hamster/internal/platform"
	"hamster/internal/serve"
	"hamster/internal/simnet"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
	"hamster/models/jiajia"
)

// The campaign harness. A campaign is data: a name, a description and a
// list of cells. A cell names one program (a kernel or a serve
// configuration), the cluster it runs on and, for the paired campaigns,
// the baseline cluster the same program runs on first. Run (runner.go)
// executes every campaign the same way and checks the one invariant they
// share — all cells of a group compute the same checksum — and every
// campaign is emitted under one envelope (Report) with one row type.
//
// Rows hold modeled quantities only: virtual times, checksums, protocol
// counters, latency quantiles. Host time is measured by the repository
// benchmark (benchmark/), on a named host and with bounds, so a
// campaign's JSON is comparable at any -parallel setting.

// schema names the result format of every campaign.
const schema = "hamster/campaign/v1"

// Cluster specifies the machine a cell runs on.
type Cluster struct {
	// Platform is "smp", "hybriddsm", "swdsm" (the software DSM with its
	// default engine; "" means the same) or a consistency-engine name
	// selecting that engine on the software DSM.
	Platform string
	Nodes    int
	// Topology is a simnet preset name; "" is "flat".
	Topology    string
	Aggregation swdsm.Aggregation
	// Params is the cost model (zero: the testbed's) and Messaging the
	// §3.3 messaging integration.
	Params    hamster.MachineParams
	Messaging hamster.MessagingMode
	// Faults, when set, is installed on the interconnect before the run.
	Faults *simnet.FaultPlan
	// Binding is how the program reaches the machine; checkpointing lives
	// in the core services.
	Binding binding
	// New, when set, builds the bare substrate in place of
	// core.NewSubstrate: one of substrates.go's constructors, for a knob
	// that is no hamster.Config field.
	New                   func(hamster.Config) (platform.Substrate, error)
	CheckpointEvery       int
	CheckpointIncremental bool
}

// binding is how a cell's program reaches the machine.
type binding int

const (
	bare      binding = iota // the apps adapter on the bare substrate
	onCore                   // the core services
	onCoreSeq                // the core services, a fence around every access (§4.5's Sequential model)
	onJiaJia                 // the JiaJia veneer over the core services
)

// build constructs the bare substrate: core.NewSubstrate (or the
// cluster's own constructor) on the cluster's configuration, without the
// core services wrapped around it.
func (c Cluster) build() (platform.Substrate, error) {
	newSubstrate := core.NewSubstrate
	if c.New != nil {
		newSubstrate = c.New
	}
	sub, err := newSubstrate(c.config())
	if err != nil {
		return nil, err
	}
	if c.Faults != nil {
		ld, ok := sub.(interface{ Layer() *amsg.Layer })
		if !ok {
			sub.Close()
			return nil, fmt.Errorf("bench: platform %q has no message layer to install a fault plan on", c.Platform)
		}
		ld.Layer().Network().SetFaults(*c.Faults)
	}
	return sub, nil
}

// config is the cluster as the one cluster description. A Platform that
// is no platform name selects that consistency engine on the software
// DSM; Validate rejects it if it is no engine name either.
func (c Cluster) config() hamster.Config {
	cfg := hamster.Config{
		Platform:              hamster.SWDSM,
		Nodes:                 c.Nodes,
		Topology:              c.Topology,
		SWDSMAggregation:      c.Aggregation,
		Params:                c.Params,
		Messaging:             c.Messaging,
		CheckpointEvery:       c.CheckpointEvery,
		CheckpointIncremental: c.CheckpointIncremental,
	}
	if kind, err := platform.ParseKind(c.Platform); err == nil {
		cfg.Platform = kind
	} else {
		cfg.Engine = c.Platform
	}
	return cfg
}

// Row is one measured cell. Labels identify it; everything else is a
// modeled result. Fields a cell does not produce stay zero and are
// omitted from the JSON.
type Row struct {
	Workload string `json:"workload"`
	// Mode is scaling's "strong" or "weak", the figures' "native" or
	// "hamster", an ablation's leg.
	Mode     string  `json:"mode,omitempty"`
	Problem  int     `json:"problem,omitempty"` // scaling: the kernel's size parameter
	Platform string  `json:"platform"`
	Model    string  `json:"model,omitempty"` // the engine's declared consistency model
	Topology string  `json:"topology,omitempty"`
	Nodes    int     `json:"nodes"`
	Zipf     float64 `json:"zipf,omitempty"`
	// Faulted marks a cell run under a fault plan with a planned crash;
	// Recoveries counts the crash-recovery cycles it needed.
	Faulted    bool `json:"faulted,omitempty"`
	Recoveries int  `json:"recoveries,omitempty"`

	// Check is the checksum, rendered so that equal strings mean equal
	// bits.
	Check     string `json:"check"`
	VirtualNs uint64 `json:"virtual_ns,omitempty"`
	// The slowest node's phases (apps.Timings): initialization, total
	// after initialization, computational core and barrier waits.
	InitNs      uint64 `json:"init_ns,omitempty"`
	AfterInitNs uint64 `json:"after_init_ns,omitempty"`
	CoreNs      uint64 `json:"core_ns,omitempty"`
	BarNs       uint64 `json:"bar_ns,omitempty"`
	// BreakdownNs attributes virtual time by category, summed over all
	// nodes. Per node the categories sum exactly to the node's clock.
	BreakdownNs map[string]uint64 `json:"breakdown_ns,omitempty"`
	// Protocol counters, summed over all nodes.
	Msgs          uint64 `json:"protocol_msgs,omitempty"`
	PageFaults    uint64 `json:"page_faults,omitempty"`
	Invalidations uint64 `json:"invalidations,omitempty"`
	Migrations    uint64 `json:"migrations,omitempty"`
	DiffBatches   uint64 `json:"diff_batches,omitempty"`
	BatchedDiffs  uint64 `json:"batched_diffs,omitempty"`
	PrefetchPages uint64 `json:"prefetch_pages,omitempty"`
	PrefetchHits  uint64 `json:"prefetch_hits,omitempty"`
	PrefetchWaste uint64 `json:"prefetch_waste,omitempty"`
	// Retries counts active-message retransmissions; zero without a
	// fault plan.
	Retries      uint64 `json:"retries,omitempty"`
	Captures     int    `json:"captures,omitempty"`
	CaptureBytes uint64 `json:"capture_bytes,omitempty"`

	// Serve cells: Sessions is the configured client population,
	// SessionsTouched how many distinct sessions issued an op.
	Sessions        uint64  `json:"sessions,omitempty"`
	SessionsTouched uint64  `json:"sessions_touched,omitempty"`
	Ops             uint64  `json:"ops,omitempty"`
	Stalls          uint64  `json:"stall_events,omitempty"`
	OfferedPerSec   float64 `json:"offered_per_sec,omitempty"`
	AchievedPerSec  float64 `json:"achieved_per_sec,omitempty"`
	MeanNs          uint64  `json:"latency_mean_ns,omitempty"`
	P50Ns           uint64  `json:"latency_p50_ns,omitempty"`
	P95Ns           uint64  `json:"latency_p95_ns,omitempty"`
	P99Ns           uint64  `json:"latency_p99_ns,omitempty"`
	HorizonNs       uint64  `json:"horizon_ns,omitempty"`
	MaxBusyNs       uint64  `json:"max_busy_ns,omitempty"`

	// Baseline is the paired campaigns' reference leg: the same program
	// on the cell's baseline cluster. Percentages are derived from the
	// two rows when rendering.
	Baseline *Row `json:"baseline,omitempty"`
}

// id names the row in diagnostics.
func (r Row) id() string {
	id := r.Workload
	for _, l := range []string{r.Mode, r.Platform, r.Topology} {
		if l != "" {
			id += "/" + l
		}
	}
	id += "/" + strconv.Itoa(r.Nodes)
	if r.Zipf != 0 {
		id += fmt.Sprintf("/zipf%.2f", r.Zipf)
	}
	if r.Faulted {
		id += "/faulted"
	}
	return id
}

// Cell is one measurement of a campaign: a program, the cluster it runs
// on, and the checksum-agreement group it belongs to.
type Cell struct {
	Workload string
	Mode     string
	Problem  int
	// Group names the checksum agreement class: every cell of a group,
	// and every baseline leg, must compute the same checksum whatever
	// the engine, fabric or platform.
	Group   string
	Cluster Cluster
	// Baseline, when set, is the cluster the program runs on first; its
	// row is nested in the cell's.
	Baseline *Cluster
	// Exactly one of Kernel and Serve is set.
	Kernel apps.Kernel
	Serve  *serve.Config
}

// labels returns the identifying part of the cell's row on cluster cl.
func (c Cell) labels(cl Cluster) Row {
	r := Row{Workload: c.Workload, Mode: c.Mode, Problem: c.Problem,
		Platform: cl.Platform, Topology: cl.Topology, Nodes: cl.Nodes}
	if c.Serve != nil {
		r.Zipf = c.Serve.ZipfSkew
		r.Faulted = cl.Faults != nil
	}
	return r
}

// run measures the cell: the baseline leg if there is one, then the cell
// itself, each on a private cluster.
func (c Cell) run() (Row, error) {
	var base *Row
	if c.Baseline != nil {
		b, err := c.measure(*c.Baseline)
		if err != nil {
			return Row{}, fmt.Errorf("bench: %s baseline: %w", b.id(), err)
		}
		base = &b
	}
	row, err := c.measure(c.Cluster)
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", row.id(), err)
	}
	row.Baseline = base
	return row, nil
}

// measure runs the cell's program once on cl. On error the returned row
// still carries the labels.
func (c Cell) measure(cl Cluster) (Row, error) {
	row := c.labels(cl)
	if c.Serve != nil {
		err := row.serve(*c.Serve, cl)
		return row, err
	}
	var sub platform.Substrate
	var res []apps.Result
	if cl.Binding == bare {
		var err error
		if sub, err = cl.build(); err != nil {
			return row, err
		}
		defer sub.Close()
		res = apps.RunOnSubstrate(sub, c.Kernel)
	} else {
		var rt *hamster.Runtime
		var sys *jiajia.System
		var err error
		if cl.Binding == onJiaJia {
			if sys, err = jiajia.Boot(cl.config()); err == nil {
				rt = sys.Runtime()
			}
		} else {
			rt, err = hamster.New(cl.config())
		}
		if err != nil {
			return row, err
		}
		defer rt.Close()
		if cl.Faults != nil {
			rt.SetFaults(*cl.Faults)
		}
		switch cl.Binding {
		case onCore:
			res = apps.RunOnEnv(rt, c.Kernel)
		case onCoreSeq:
			res = apps.RunOnEnvSeq(rt, c.Kernel)
		default:
			res = apps.RunOnJia(sys, c.Kernel)
		}
		sub = rt.Substrate()
		if ck := rt.Checkpoints(); ck != nil {
			row.Captures, row.CaptureBytes = ck.Stats()
		}
	}
	row.VirtualNs = uint64(apps.MaxTotal(res))
	for _, r := range res {
		row.InitNs = max(row.InitNs, uint64(r.T.Init))
		row.AfterInitNs = max(row.AfterInitNs, uint64(r.T.Total-r.T.Init))
		row.CoreNs = max(row.CoreNs, uint64(r.T.Core))
		row.BarNs = max(row.BarNs, uint64(r.T.Bar))
	}
	row.Check = checkString(res[0].Check)
	row.tally(sub)
	return row, nil
}

// checkString renders a kernel checksum so that equal strings mean equal
// bits.
func checkString(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// tally sums every node's protocol counters, clock attribution and
// retransmissions into the row.
func (r *Row) tally(sub platform.Substrate) {
	if e, ok := sub.(consengine.Engine); ok {
		r.Model = e.DeclaredModel().String()
	}
	ld, _ := sub.(interface{ Layer() *amsg.Layer })
	var bd vclock.Breakdown
	for i := 0; i < sub.Nodes(); i++ {
		s := sub.NodeStats(i)
		r.Msgs += s.ProtocolMsgs
		r.PageFaults += s.PageFaults
		r.Invalidations += s.Invalidations
		r.Migrations += s.HomeMigrations
		r.DiffBatches += s.DiffBatches
		r.BatchedDiffs += s.BatchedDiffs
		r.PrefetchPages += s.PrefetchPages
		r.PrefetchHits += s.PrefetchHits
		r.PrefetchWaste += s.PrefetchWaste
		bd = bd.Add(sub.Clock(i).Breakdown())
		if ld != nil {
			n, _ := ld.Layer().Stats(simnet.NodeID(i)).Faults()
			r.Retries += n
		}
	}
	r.BreakdownNs = map[string]uint64{
		"compute":  uint64(bd.Compute),
		"memory":   uint64(bd.Memory),
		"protocol": uint64(bd.Protocol),
		"network":  uint64(bd.Network),
		"stolen":   uint64(bd.Stolen),
	}
}

// serve runs a serve configuration on cl and fills the row from its
// report. A cluster with a fault plan runs through the core services and
// recovers its planned crash through the cluster orchestrator. Every
// reported quantity is a pure function of the seed and configuration, so
// serve rows replay bit-identically.
func (r *Row) serve(cfg serve.Config, cl Cluster) error {
	var rep *serve.Report
	if cl.Faults != nil {
		hcfg := cl.config()
		hcfg.CheckpointSink = checkpoint.NewMemorySink(64)
		var err error
		if rep, r.Recoveries, err = serve.RunRecoverable(cfg, hcfg, *cl.Faults); err != nil {
			return err
		}
		if r.Recoveries < 1 {
			return fmt.Errorf("planned crash needed no recovery")
		}
	} else {
		sub, err := cl.build()
		if err != nil {
			return err
		}
		defer sub.Close()
		if rep, err = serve.RunOnSubstrate(cfg, sub); err != nil {
			return err
		}
	}
	r.Sessions, r.SessionsTouched = rep.Cfg.Sessions, rep.Sessions
	r.Ops, r.Stalls = rep.Applied, rep.Stalled
	r.OfferedPerSec, r.AchievedPerSec = rep.OfferedPerSec, rep.AchievedPerSec
	r.MeanNs, r.P50Ns, r.P95Ns, r.P99Ns = rep.MeanNs, rep.P50Ns, rep.P95Ns, rep.P99Ns
	r.HorizonNs, r.MaxBusyNs = rep.HorizonNs, rep.MaxBusyNs
	// Hex, so JSON consumers cannot lose low bits to float conversion.
	r.Check = fmt.Sprintf("%#016x", rep.Checksum)
	return nil
}

// Campaign is a named list of cells plus how to print it.
type Campaign struct {
	Name string
	// Description's first line is the campaign's summary.
	Description string
	// Sized marks a campaign built at the -size working sets.
	Sized bool
	Cells []Cell
	// Columns names the table columns, in order (see columns).
	Columns []string
	// Footer, when set, renders the campaign's call-outs below the table.
	Footer func(rows []Row) string
}

// WithFaults returns the campaign with plan installed on every cell's
// cluster.
func (c Campaign) WithFaults(plan simnet.FaultPlan) Campaign {
	cells := make([]Cell, len(c.Cells))
	for i, cell := range c.Cells {
		cell.Cluster.Faults = &plan
		cells[i] = cell
	}
	c.Cells = cells
	return c
}

// Report is the envelope every campaign is emitted under.
type Report struct {
	Schema      string `json:"schema"`
	Campaign    string `json:"campaign"`
	Description string `json:"description"`
	// FaultProfile and FaultSeed name the -faults campaign the cells ran
	// under; empty when unperturbed.
	FaultProfile string `json:"fault_profile,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
	Rows         []Row  `json:"results"`
}

// column is one column of the campaign table.
type column struct {
	left bool // label columns align left, readings right
	cell func(r Row) string
}

func virtual(ns uint64) string { return vclock.Duration(ns).String() }

func count(n uint64) string { return strconv.FormatUint(n, 10) }

// baseline guards the paired columns against a row without a baseline.
func baseline(r Row) Row {
	if r.Baseline == nil {
		return Row{}
	}
	return *r.Baseline
}

// changePct renders (a-b)/b in percent.
func changePct(a, b uint64) string {
	return fmt.Sprintf("%.2f%%", pctDiff(vclock.Duration(a), vclock.Duration(b)))
}

// columns is every column a campaign may name; the name is the title.
var columns = map[string]column{
	"workload":     {true, func(r Row) string { return r.Workload }},
	"mode":         {true, func(r Row) string { return r.Mode }},
	"platform":     {true, func(r Row) string { return r.Platform }},
	"model":        {true, func(r Row) string { return r.Model }},
	"topology":     {true, func(r Row) string { return r.Topology }},
	"nodes":        {false, func(r Row) string { return strconv.Itoa(r.Nodes) }},
	"problem":      {false, func(r Row) string { return strconv.Itoa(r.Problem) }},
	"zipf":         {false, func(r Row) string { return fmt.Sprintf("%.2f", r.Zipf) }},
	"virtual":      {false, func(r Row) string { return virtual(r.VirtualNs) }},
	"virtual base": {false, func(r Row) string { return virtual(baseline(r).VirtualNs) }},
	"virtual +%": {false, func(r Row) string {
		return changePct(r.VirtualNs, baseline(r).VirtualNs)
	}},
	"msgs":      {false, func(r Row) string { return count(r.Msgs) }},
	"msgs base": {false, func(r Row) string { return count(baseline(r).Msgs) }},
	"msgs +%":   {false, func(r Row) string { return changePct(r.Msgs, baseline(r).Msgs) }},
	"faults":    {false, func(r Row) string { return count(r.PageFaults) }},
	"invals":    {false, func(r Row) string { return count(r.Invalidations) }},
	"migr":      {false, func(r Row) string { return count(r.Migrations) }},
	"retries":   {false, func(r Row) string { return count(r.Retries) }},
	"captures":  {false, func(r Row) string { return strconv.Itoa(r.Captures) }},
	"bytes":     {false, func(r Row) string { return count(r.CaptureBytes) }},
	"ops":       {false, func(r Row) string { return count(r.Ops) }},
	"stalls":    {false, func(r Row) string { return count(r.Stalls) }},
	"offered/s": {false, func(r Row) string { return fmt.Sprintf("%.0f", r.OfferedPerSec) }},
	"achieved/s": {false, func(r Row) string {
		return fmt.Sprintf("%.0f", r.AchievedPerSec)
	}},
	"p50": {false, func(r Row) string { return count(r.P50Ns) }},
	"p95": {false, func(r Row) string { return count(r.P95Ns) }},
	"p99": {false, func(r Row) string { return count(r.P99Ns) }},
	"F": {true, func(r Row) string {
		if r.Faulted {
			return "F"
		}
		return ""
	}},
}

// Render prints a campaign report as a text table: the campaign's
// columns, each as wide as its widest cell, then the campaign's footer.
func Render(c Campaign, rep *Report) string {
	cols := make([]column, len(c.Columns))
	table := make([][]string, len(rep.Rows)+1)
	width := make([]int, len(cols))
	for j, name := range c.Columns {
		col, ok := columns[name]
		if !ok {
			panic("bench: campaign " + c.Name + " names unknown column " + name)
		}
		cols[j] = col
	}
	for i := range table {
		table[i] = make([]string, len(cols))
		for j, col := range cols {
			if i == 0 {
				table[i][j] = c.Columns[j]
			} else {
				table[i][j] = col.cell(rep.Rows[i-1])
			}
			if n := len(table[i][j]); n > width[j] {
				width[j] = n
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign %s: %s\n\n", c.Name, rep.Description)
	for _, line := range table {
		for j, text := range line {
			if cols[j].left {
				fmt.Fprintf(&b, "  %-*s", width[j], text)
			} else {
				fmt.Fprintf(&b, "  %*s", width[j], text)
			}
		}
		b.WriteString("\n")
	}
	if c.Footer != nil {
		b.WriteString("\n" + c.Footer(rep.Rows))
	}
	return b.String()
}
