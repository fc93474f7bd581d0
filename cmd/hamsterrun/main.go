// Command hamsterrun executes one benchmark on one platform — the
// identical-binary experiment of §5.4: the same program, retargeted purely
// by configuration.
//
// Usage:
//
//	hamsterrun [-config FILE] [-platform smp|hybrid-dsm|software-dsm]
//	           [-nodes N] [-bench NAME] [-n SIZE] [-iters I]
//	           [-engine NAME] [-topology NAME] [-aggregate] [-prefetch]
//	           [-checkpoint N] [-incremental] [-recover]
//	           [-faults PROFILE] [-faultseed SEED]
//	           [-monitor] [-verify] [-timeline] [-trace FILE] [-timebreakdown]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// The flags fill in one hamster.Config — the one description of a
// cluster — and Config.Validate decides whether it can be built: an
// unknown engine or topology, an engine, topology, aggregation or
// checkpointing on a platform that has no such thing, and the ivy
// engine's two exclusions are its errors, printed verbatim with exit
// status 2 before anything boots. The command itself checks only what is
// a relation between flags (-incremental, -recover, -prefetch and
// -faultseed need the flag they modify; -iters needs a benchmark that
// iterates) and rejects negative sizes. A -config file (see internal/cluster for the format)
// replaces -platform/-nodes (setting either beside it exits 2),
// mirroring how the original framework switched platforms with a node
// configuration file.
//
// -checkpoint N captures a coordinated snapshot every N barriers on the
// software DSM; -incremental switches captures after the first to
// dirty-page diffs. -recover (requires -checkpoint and a -faults profile)
// rolls a planned node crash back to the last snapshot and re-admits the
// node instead of aborting. -aggregate turns on the software DSM's
// protocol aggregation layer (batched diff flush + write-notice
// piggybacking); -prefetch adds adaptive sequential page prefetch.
// -engine selects the software DSM's consistency engine (scope, eager-rc,
// or ivy). -topology selects the software DSM's switch fabric (flat,
// rack, or fattree); above 8 nodes the DSM also switches to hierarchical
// synchronization (tree barriers, distributed lock queues).
//
// -cpuprofile FILE collects a CPU profile from the end of flag
// validation to exit, also when the run aborts; -memprofile FILE writes a
// heap snapshot at exit. Inspect either with "go tool pprof FILE" (see
// DESIGN.md §5i for the workflow).
//
// Server workloads run through the campaign harness:
// hamsterbench -campaign serve -json FILE.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/cluster"
	"hamster/internal/core"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/prof"
	"hamster/internal/simnet"
	"hamster/models/jiajia"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed flags.
type options struct {
	config, platform, engine, topology string
	nodes                              int
	bench                              string
	n, iters                           int
	faults                             string
	faultSeed                          int64
	checkpoint                         int
	incremental, recover               bool
	aggregate, prefetch                bool
	monitor, verify, timeline          bool
	timeBreak                          bool
	trace, cpuProfile, memProfile      string
}

// newFlags declares the command's whole flag surface. TestSurfaceEvidence
// walks it: a flag added here without a committed measurement behind it
// fails tier-1.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("hamsterrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.config, "config", "", "cluster configuration file (replaces -platform/-nodes)")
	fs.StringVar(&o.platform, "platform", "software-dsm", "smp, hybrid-dsm, or software-dsm")
	fs.IntVar(&o.nodes, "nodes", 4, "cluster size")
	fs.StringVar(&o.bench, "bench", "pi", "matmult, pi, sor, sor-opt, lu, water, or stream")
	fs.IntVar(&o.n, "n", 0, "problem size (0 = benchmark default)")
	fs.IntVar(&o.iters, "iters", 0, "iterations/steps (0 = benchmark default)")
	fs.BoolVar(&o.monitor, "monitor", false, "print per-node monitoring reports")
	fs.BoolVar(&o.verify, "verify", false, "trace the run and print the formal consistency report (§6)")
	fs.BoolVar(&o.timeline, "timeline", false, "attach the external sampler and print per-epoch activity (§4.3)")
	fs.StringVar(&o.trace, "trace", "", "record protocol events and write a Chrome/Perfetto trace to this file")
	fs.BoolVar(&o.timeBreak, "timebreakdown", false, "print the per-node virtual-time attribution (compute/memory/protocol/network/stolen)")
	fs.StringVar(&o.faults, "faults", "", "run a seeded fault campaign: "+strings.Join(simnet.FaultProfiles(), ", "))
	fs.Int64Var(&o.faultSeed, "faultseed", 1, "seed of the fault campaign's deterministic draws")
	fs.IntVar(&o.checkpoint, "checkpoint", 0, "capture a coordinated snapshot every N barriers (0 = off; software DSM only)")
	fs.BoolVar(&o.incremental, "incremental", false, "capture dirty-page diffs after the first full snapshot (requires -checkpoint)")
	fs.BoolVar(&o.recover, "recover", false, "recover planned node crashes from the last snapshot (requires -checkpoint and -faults)")
	fs.BoolVar(&o.aggregate, "aggregate", false, "enable protocol aggregation: batched diff flush + write-notice piggybacking (software DSM only)")
	fs.BoolVar(&o.prefetch, "prefetch", false, "enable adaptive sequential page prefetch (requires -aggregate)")
	fs.StringVar(&o.engine, "engine", "", "software DSM consistency engine: "+strings.Join(hamster.EngineNames(), ", "))
	fs.StringVar(&o.topology, "topology", "", "software DSM switch fabric: "+strings.Join(hamster.TopologyNames(), ", "))
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	return fs, o
}

// cluster turns the flags into the one cluster description.
func (o *options) cluster() (hamster.Config, error) {
	kind, err := platform.ParseKind(o.platform)
	if err != nil {
		return hamster.Config{}, err
	}
	cfg := hamster.Config{Platform: kind, Nodes: o.nodes}
	if o.config != "" {
		f, err := os.Open(o.config)
		if err != nil {
			return cfg, err
		}
		fileCfg, err := cluster.Parse(f)
		f.Close()
		if err != nil {
			return cfg, err
		}
		cfg = fileCfg.RuntimeConfig()
	}
	cfg.Engine, cfg.Topology = o.engine, o.topology
	cfg.CheckpointEvery, cfg.CheckpointIncremental = o.checkpoint, o.incremental
	if o.aggregate {
		cfg.SWDSMAggregation = hamster.Aggregation{Batch: true, Prefetch: o.prefetch}
	}
	return cfg, nil
}

// run is the whole command; it returns the exit status. Everything up to
// prof.StartCPU is validation and returns 2 with nothing booted; from
// there on every return passes through the deferred profile flush, so an
// aborted run still leaves its profile behind.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}

	// Relations between flags, which no Config can express, and flags a
	// run would otherwise silently ignore.
	switch {
	case o.n < 0 || o.iters < 0:
		return usage("-n and -iters must be >= 0 (0 = the benchmark's default), got -n %d -iters %d", o.n, o.iters)
	case set["iters"] && slices.Contains([]string{"matmult", "pi", "lu"}, o.bench):
		return usage("-iters: %s takes no iteration count; drop -iters", o.bench)
	case o.config != "" && (set["platform"] || set["nodes"]):
		return usage("-config replaces -platform and -nodes: drop them, or drop -config")
	case set["faultseed"] && o.faults == "":
		return usage("-faultseed seeds a fault campaign: add -faults PROFILE, or drop -faultseed")
	case o.incremental && o.checkpoint == 0:
		return usage("-incremental requires -checkpoint")
	case o.prefetch && !o.aggregate:
		return usage("-prefetch requires -aggregate")
	case o.recover && o.checkpoint == 0:
		return usage("-recover requires -checkpoint: recovery rolls back to the last snapshot")
	case o.recover && o.faults == "":
		return usage("-recover requires a -faults profile with a planned crash (e.g. crash-node)")
	case o.checkpoint > 0 && (o.verify || o.timeline || o.trace != ""):
		return usage("-checkpoint runs under the cluster supervisor, which replaces the runtime on rollback; -verify, -timeline, and -trace are not supported with it")
	}
	kernel, desc, err := pickKernel(o.bench, o.n, o.iters)
	if err != nil {
		return usage("%v", err)
	}
	var plan simnet.FaultPlan
	if o.faults != "" {
		if plan, err = simnet.FaultProfile(o.faults, o.faultSeed); err != nil {
			return usage("%v", err)
		}
		plan.Recover = o.recover
	}
	// Everything else a command line can get wrong is a cluster that cannot
	// be built, and Validate's to say.
	cfg, err := o.cluster()
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return usage("%v", err)
	}

	stopCPU, err := prof.StartCPU(o.cpuProfile)
	if err != nil {
		return usage("%v", err)
	}
	defer func() {
		stopCPU()
		if err := prof.WriteHeap(o.memProfile); err != nil {
			fmt.Fprintln(stderr, err)
			status = 1
		}
	}()

	how := "JiaJia model over HAMSTER"
	if o.checkpoint > 0 {
		mode := "full"
		if o.incremental {
			mode = "incremental"
		}
		how = fmt.Sprintf("core services, %s checkpoint every %d barriers", mode, o.checkpoint)
	}
	fmt.Fprintf(stdout, "running %s on %v with %d nodes (%s)\n", desc, cfg.Platform, cfg.Nodes, how)
	if cfg.Engine != "" {
		fmt.Fprintf(stdout, "consistency engine %q\n", cfg.Engine)
	}
	if o.faults != "" {
		fmt.Fprintf(stdout, "fault campaign %q, seed %d", o.faults, o.faultSeed)
		if o.recover {
			fmt.Fprint(stdout, ", crash recovery on")
		}
		fmt.Fprintln(stdout)
	}

	if o.checkpoint > 0 {
		// Coordinated checkpointing runs through the core services under
		// the cluster supervisor, which with -recover rolls planned crashes
		// back to the last snapshot and re-admits the victim.
		results, rt, recoveries, err := apps.RunRecoverable(cfg, plan, kernel)
		if err != nil {
			fmt.Fprintf(stderr, "\nrun aborted: %v\n", err)
			return 1
		}
		defer rt.Close()
		o.printRun(stdout, rt, results, func() {
			captures, bytes := rt.Checkpoints().Stats()
			fmt.Fprintf(stdout, "snapshots  %d captured, %d bytes\n", captures, bytes)
			if o.recover {
				fmt.Fprintf(stdout, "recoveries %d\n", recoveries)
			}
		})
		return 0
	}

	sys, err := jiajia.Boot(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer sys.Shutdown()
	rt := sys.Runtime()
	if o.verify {
		rt.StartTrace()
	}
	var sampler *core.Sampler
	if o.timeline {
		sampler = rt.AttachSampler()
	}
	if o.faults != "" {
		rt.SetFaults(plan)
	}
	if o.trace != "" || o.faults != "" {
		// Fault campaigns always record, so retries and timeouts show up
		// in the report (and the trace, if requested).
		rt.Perf().Enable()
	}

	results, err := runGuarded(sys, kernel)
	if err != nil {
		fmt.Fprintf(stderr, "\nrun aborted: %v\n", err)
		if o.faults != "" {
			faultReport(rt, stderr)
		}
		return 1
	}
	o.printRun(stdout, rt, results, func() {
		if o.faults != "" {
			fmt.Fprintln(stdout)
			faultReport(rt, stdout)
		}
	})
	if o.verify {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rt.CheckConsistency().String())
	}
	if sampler != nil {
		rt.DetachSampler()
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sampler.Timeline(0))
	}
	if o.trace != "" {
		events, err := writeTrace(rt.Perf(), o.trace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d protocol events to %s (open in ui.perfetto.dev or chrome://tracing)\n",
			events, o.trace)
	}
	return 0
}

// printRun prints a finished run: the kernel's result lines, the lines of
// the path that ran it, then the reports -monitor and -timebreakdown ask
// for.
func (o *options) printRun(w io.Writer, rt *hamster.Runtime, results []apps.Result, pathLines func()) {
	phase := func(sel func(apps.Timings) hamster.Duration) hamster.Duration { return apps.MaxPhase(results, sel) }
	fmt.Fprintf(w, "\ncheck      %v\n", results[0].Check)
	fmt.Fprintf(w, "total      %v (slowest node)\n", apps.MaxTotal(results))
	fmt.Fprintf(w, "init       %v\n", phase(func(t apps.Timings) hamster.Duration { return t.Init }))
	fmt.Fprintf(w, "core       %v\n", phase(func(t apps.Timings) hamster.Duration { return t.Core }))
	fmt.Fprintf(w, "barriers   %v\n", phase(func(t apps.Timings) hamster.Duration { return t.Bar }))
	pathLines()
	if o.monitor {
		fmt.Fprintln(w)
		fmt.Fprint(w, core.ClusterReport(rt))
	}
	if o.timeBreak {
		fmt.Fprintln(w)
		fmt.Fprint(w, perfmon.Summary(rt.TimeBreakdowns()))
	}
}

// writeTrace stops the recorder and writes its events as Chrome
// trace-event JSON, returning how many there were.
func writeTrace(rec *perfmon.Recorder, path string) (events int, err error) {
	rec.Disable()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	for n := 0; n < rec.Nodes(); n++ {
		events += rec.Len(n)
	}
	return events, nil
}

// runGuarded executes the kernel, converting the clean panics of the
// degradation paths (unreachable pages, aborted barriers) into an error
// so the campaign can exit with diagnostics instead of a stack trace.
func runGuarded(sys *jiajia.System, kernel apps.Kernel) (results []apps.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return apps.RunOnJia(sys, kernel), nil
}

// faultReport prints what the fault campaign did to the run: wire-level
// drops, protocol retries and timeouts, and the failure detector's view
// of the cluster. Retries come from the active-message layer's exact
// counters; timeouts and node-downs are counted from the retained events,
// so when the recorder dropped events the report says so.
func faultReport(rt *hamster.Runtime, w io.Writer) {
	layer := rt.AMsg()
	drops := rt.Network().Drops()
	if layer != nil && layer.Network() != rt.Network() {
		drops += layer.Network().Drops()
	}
	rec := rt.Perf()
	var timeouts, downs, lost uint64
	for n := 0; n < rec.Nodes(); n++ {
		counts := rec.KindCount(n)
		timeouts += counts[perfmon.EvTimeout]
		downs += counts[perfmon.EvNodeDown]
		lost += rec.Dropped(n)
	}
	var retries, suppressed uint64
	if layer != nil {
		for n := 0; n < rt.Nodes(); n++ {
			r, s := layer.Stats(simnet.NodeID(n)).Faults()
			retries += r
			suppressed += s
		}
	}
	fmt.Fprintf(w, "dropped msgs  %d\n", drops)
	fmt.Fprintf(w, "retries       %d\n", retries)
	fmt.Fprintf(w, "timeouts      %d\n", timeouts)
	if lost > 0 {
		fmt.Fprintf(w, "events dropped %d (timeouts and node-downs are lower bounds)\n", lost)
	}
	if layer != nil {
		fmt.Fprintf(w, "dup suppressed %d\n", suppressed)
		if layer.Network().Closed() {
			// The run aborted and tore the network down: probing now
			// would blame everyone. The abort diagnostic above already
			// names the unreachable node.
			fmt.Fprintln(w, "cluster health: run aborted before a sweep could complete")
		} else {
			mon := cluster.NewMonitor(layer, cluster.DefaultThreshold, rec)
			mon.Sweep(0)
			fmt.Fprintln(w, mon.Diagnostic())
		}
	} else if downs > 0 {
		fmt.Fprintf(w, "nodes declared down: %d\n", downs)
	}
}

func pickKernel(name string, n, iters int) (apps.Kernel, string, error) {
	def := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	switch name {
	case "matmult":
		sz := def(n, 256)
		return func(m apps.Machine) apps.Result { return apps.MatMult(m, sz) },
			fmt.Sprintf("matmult %dx%d", sz, sz), nil
	case "pi":
		sz := def(n, 10_000_000)
		return func(m apps.Machine) apps.Result { return apps.PI(m, sz) },
			fmt.Sprintf("pi with %d intervals", sz), nil
	case "sor":
		sz, it := def(n, 256), def(iters, 8)
		return func(m apps.Machine) apps.Result { return apps.SOR(m, sz, it, false) },
			fmt.Sprintf("sor (unoptimized) %dx%d, %d iters", sz, sz, it), nil
	case "sor-opt":
		sz, it := def(n, 256), def(iters, 8)
		return func(m apps.Machine) apps.Result { return apps.SOR(m, sz, it, true) },
			fmt.Sprintf("sor (optimized) %dx%d, %d iters", sz, sz, it), nil
	case "lu":
		sz := def(n, 224)
		return func(m apps.Machine) apps.Result { return apps.LU(m, sz) },
			fmt.Sprintf("lu %dx%d", sz, sz), nil
	case "water":
		sz, it := def(n, 288), def(iters, 2)
		return func(m apps.Machine) apps.Result { return apps.Water(m, sz, it) },
			fmt.Sprintf("water with %d molecules, %d steps", sz, it), nil
	case "stream":
		sz, it := def(n, 65536), def(iters, 3)
		return func(m apps.Machine) apps.Result { return apps.Stream(m, sz, it, hamster.Block) },
			fmt.Sprintf("stream over %d doubles, %d iters", sz, it), nil
	default:
		return nil, "", fmt.Errorf("unknown benchmark %q", name)
	}
}
