// Command hamsterbench regenerates the paper's evaluation (§5): Table 1,
// Table 2, Figures 2–4, and the design-choice ablations, printing
// paper-style text renderings. It also runs the repository's modeled
// campaigns.
//
// Usage:
//
//	hamsterbench [-size small|default|paper] [-models DIR]
//	             [-table1] [-table2] [-fig2] [-fig3] [-fig4] [-ablations]
//	hamsterbench -campaign NAME -json FILE [-parallel N]
//	             [-faults PROFILE [-faultseed SEED]]
//
// With no selection flags, every table, figure and ablation runs.
//
// -campaign NAME runs one campaign from internal/bench's registry and
// writes its report to -json FILE ("-" for stdout), the text table to
// stderr. An unknown name lists the registry with each campaign's
// one-line description. Every campaign is emitted under one schema, and
// its rows hold modeled quantities only — virtual times, checksums,
// protocol counters, latency quantiles — so a report is comparable at
// any -parallel setting; host time is measured by benchmark/run.sh. A
// campaign fails if two cells of one agreement group compute different
// checksums.
//
// -faults PROFILE reruns the kernels campaign under a seeded fault
// campaign (see internal/simnet), adding retransmission counts; the
// report's envelope names the profile and its seed.
//
// -parallel N runs independent cells on up to N goroutines (0 =
// GOMAXPROCS, 1 = sequential). Each cell owns a private simulated
// cluster, so modeled results are identical at any parallelism and rows
// are always emitted in cell order.
//
// -cpuprofile FILE collects a CPU profile from the end of flag
// validation to exit, also when the run fails; -memprofile FILE writes a
// heap snapshot at exit. Inspect either with "go tool pprof FILE".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hamster/internal/apicount"
	"hamster/internal/bench"
	"hamster/internal/prof"
	"hamster/internal/simnet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, bench.Campaigns()))
}

// run is the whole command; it returns the exit status. Everything up to
// prof.StartCPU is flag validation and returns 2; from there on every
// return passes through the deferred profile flush, so a failing run
// still leaves its profile behind.
func run(args []string, stdout, stderr io.Writer, registry bench.Registry) (status int) {
	fs := flag.NewFlagSet("hamsterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.String("size", "default", "workload sizes: small, default, or paper")
	modelsDir := fs.String("models", "models", "path to the programming-model packages (Table 2)")
	var sz bench.Sizes
	sections := []struct {
		flag, name, usage string
		render            func() (string, error)
		set               *bool
	}{
		{flag: "table1", name: "table1", usage: "print Table 1 (benchmarks and working sets)",
			render: func() (string, error) { return bench.RenderTable1(bench.Table1(sz)), nil }},
		{flag: "table2", name: "table2", usage: "print Table 2 (implementation complexity)",
			render: func() (string, error) {
				rows, err := apicount.CountModels(*modelsDir)
				if err != nil {
					return "", err
				}
				return "Table 2: Implementation Complexity of Programming Models Using HAMSTER\n\n" + apicount.Render(rows), nil
			}},
		{flag: "fig2", name: "figure2", usage: "run Figure 2 (HAMSTER overhead vs native JiaJia)",
			render: func() (string, error) { return bench.RenderFigure2(bench.Figure2(sz)), nil }},
		{flag: "fig3", name: "figure3", usage: "run Figure 3 (hybrid vs software DSM)",
			render: func() (string, error) { return bench.RenderFigure3(bench.Figure3(sz)), nil }},
		{flag: "fig4", name: "figure4", usage: "run Figure 4 (hardware vs hybrid vs software DSM)",
			render: func() (string, error) { return bench.RenderFigure4(bench.Figure4(sz)), nil }},
		{flag: "ablations", name: "ablations", usage: "run the design-choice ablations",
			render: func() (string, error) { return bench.RenderAblations(bench.Ablations(sz)), nil }},
	}
	for i := range sections {
		sections[i].set = fs.Bool(sections[i].flag, false, sections[i].usage)
	}
	campaign := fs.String("campaign", "", "run one modeled campaign (needs -json): "+strings.Join(registry.Names(), ", "))
	jsonOut := fs.String("json", "", "write the -campaign report to this file (\"-\" for stdout)")
	faults := fs.String("faults", "", "run -campaign kernels under a seeded fault campaign: "+strings.Join(simnet.FaultProfiles(), ", "))
	faultSeed := fs.Int64("faultseed", 1, "seed of the fault campaign's deterministic draws")
	par := fs.Int("parallel", 0, "run independent campaign cells on up to N goroutines (0 = GOMAXPROCS, 1 = sequential); modeled results are identical at any setting")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}

	switch *size {
	case "small":
		sz = bench.Small()
	case "default":
		sz = bench.Default()
	case "paper":
		sz = bench.Paper()
	default:
		return usage("unknown -size %q (have small, default, paper)", *size)
	}
	if *par < 0 {
		return usage("-parallel must be >= 0, got %d", *par)
	}
	anyFigure := false
	for _, s := range sections {
		anyFigure = anyFigure || *s.set
	}
	var camp bench.Campaign
	switch {
	case *campaign == "" && *jsonOut != "":
		return usage("-json writes a campaign report: add -campaign NAME (%s)", strings.Join(registry.Names(), ", "))
	case *campaign == "" && *faults != "":
		return usage("-faults applies to the kernels campaign: add -campaign kernels -json FILE")
	case *campaign != "":
		var err error
		if camp, err = registry.Lookup(*campaign); err != nil {
			fmt.Fprintln(stderr, err)
			for _, c := range registry {
				fmt.Fprintf(stderr, "  %-12s %s\n", c.Name, c.Description)
			}
			return 2
		}
		if *jsonOut == "" {
			return usage("-campaign %s needs -json FILE for its report (\"-\" for stdout)", *campaign)
		}
		if anyFigure {
			return usage("-campaign runs instead of the tables and figures: drop -table1/-table2/-fig2/-fig3/-fig4/-ablations, or run them in a second invocation")
		}
		if *faults != "" {
			if *campaign != "kernels" {
				return usage("-faults applies to the kernels campaign only: use -campaign kernels, or drop -faults")
			}
			plan, err := simnet.FaultProfile(*faults, *faultSeed)
			if err != nil {
				return usage("%v", err)
			}
			camp = camp.WithFaults(plan)
		}
	}

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		return usage("%v", err)
	}
	defer func() {
		stopCPU()
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(stderr, err)
			status = 1
		}
	}()

	if *campaign != "" {
		rep, err := bench.Run(camp, *par)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *faults != "" {
			rep.FaultProfile, rep.FaultSeed = *faults, *faultSeed
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		blob = append(blob, '\n')
		if *jsonOut == "-" {
			_, err = stdout.Write(blob)
		} else {
			err = os.WriteFile(*jsonOut, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprint(stderr, bench.Render(camp, rep))
		return 0
	}

	fmt.Fprintf(stdout, "HAMSTER evaluation harness — workload size %q\n\n", *size)
	for _, s := range sections {
		if anyFigure && !*s.set {
			continue
		}
		start := time.Now()
		text, err := s.render()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", s.name, err)
			return 1
		}
		fmt.Fprintln(stdout, text)
		fmt.Fprintf(stdout, "[%s finished in %v]\n\n", s.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
