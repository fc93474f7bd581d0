// Command hamsterbench regenerates the paper's evaluation (§5) and runs
// the repository's other modeled campaigns.
//
// Usage:
//
//	hamsterbench [-size small|default|paper] [-models DIR] [-parallel N]
//	hamsterbench -table2 [-models DIR]
//	hamsterbench -campaign NAME [-json FILE] [-size S] [-parallel N]
//	             [-faults PROFILE [-faultseed SEED]]
//
// With no selection flag it prints Table 2 (implementation complexity of
// the programming models) and runs the paper's two campaigns: figures
// (Table 1 and Figures 2–4) and ablations (the design choices DESIGN.md
// calls out). -size sets their working sets; no other campaign reads it.
//
// -campaign NAME runs one campaign from internal/bench's registry and
// prints its table to stdout; with -json FILE it also writes the report
// there ("-" for stdout) and the table goes to stderr. An unknown name
// lists the registry with each campaign's summary. Every campaign is
// emitted under one schema, and its rows hold modeled quantities only —
// virtual times, checksums, protocol counters, latency quantiles — so a
// report is comparable at any -parallel setting; host time is measured by
// benchmark/run.sh. A campaign fails if two cells of one agreement group
// compute different checksums.
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
// Every flag combination the command cannot honor exits 2 before anything
// runs. -cpuprofile FILE collects a CPU profile from the end of flag
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

	"hamster/internal/apicount"
	"hamster/internal/bench"
	"hamster/internal/prof"
	"hamster/internal/simnet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, bench.Campaigns))
}

// run is the whole command; it returns the exit status. Everything up to
// prof.StartCPU is flag validation and returns 2; from there on every
// return passes through the deferred profile flush, so a failing run
// still leaves its profile behind.
func run(args []string, stdout, stderr io.Writer, campaigns func(bench.Sizes) bench.Registry) (status int) {
	fs := flag.NewFlagSet("hamsterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.String("size", "default", "working sets of the figures and ablations campaigns: small, default, or paper")
	modelsDir := fs.String("models", "models", "path to the programming-model packages (Table 2)")
	table2 := fs.Bool("table2", false, "print Table 2 (implementation complexity) only")
	campaign := fs.String("campaign", "", "run one campaign: "+strings.Join(campaigns(bench.Default()).Names(), ", "))
	jsonOut := fs.String("json", "", "also write the -campaign report to this file (\"-\" for stdout; the table then goes to stderr)")
	faults := fs.String("faults", "", "run -campaign kernels under a seeded fault campaign: "+strings.Join(simnet.FaultProfiles(), ", "))
	faultSeed := fs.Int64("faultseed", 1, "seed of the fault campaign's deterministic draws")
	par := fs.Int("parallel", 0, "run independent campaign cells on up to N goroutines (0 = GOMAXPROCS, 1 = sequential); modeled results are identical at any setting")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}

	sizes, ok := map[string]func() bench.Sizes{"small": bench.Small, "default": bench.Default, "paper": bench.Paper}[*size]
	if !ok {
		return usage("unknown -size %q (have small, default, paper)", *size)
	}
	registry := campaigns(sizes())
	// What runs: one campaign, Table 2 alone, or Table 2 and the sized
	// campaigns — the paper's evaluation.
	var camps []bench.Campaign
	switch {
	case *campaign != "":
		camp, err := registry.Lookup(*campaign)
		if err != nil {
			fmt.Fprintln(stderr, err)
			for _, c := range registry {
				summary, _, _ := strings.Cut(c.Description, "\n")
				fmt.Fprintf(stderr, "  %-12s %s\n", c.Name, summary)
			}
			return 2
		}
		camps = []bench.Campaign{camp}
	case !*table2:
		for _, c := range registry {
			if c.Sized {
				camps = append(camps, c)
			}
		}
	}
	switch {
	case *par < 0:
		return usage("-parallel must be >= 0, got %d", *par)
	case *campaign != "" && *table2:
		return usage("-campaign runs instead of Table 2: drop -table2, or run it in a second invocation")
	case *jsonOut != "" && *campaign == "":
		return usage("-json writes a campaign report: add -campaign NAME (%s)", strings.Join(registry.Names(), ", "))
	case *faults != "" && *campaign != "kernels":
		return usage("-faults applies to the kernels campaign only: add -campaign kernels, or drop -faults")
	case set["faultseed"] && *faults == "":
		return usage("-faultseed seeds a fault campaign: add -faults PROFILE, or drop -faultseed")
	case set["size"] && (len(camps) == 0 || !camps[0].Sized):
		return usage("-size sets the working sets of the figures and ablations campaigns, and none of them runs: drop -size")
	case set["models"] && *campaign != "":
		return usage("-models locates the sources Table 2 counts, and Table 2 does not print with -campaign: drop -models")
	}
	if *faults != "" {
		plan, err := simnet.FaultProfile(*faults, *faultSeed)
		if err != nil {
			return usage("%v", err)
		}
		camps[0] = camps[0].WithFaults(plan)
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

	if *campaign == "" {
		rows, err := apicount.CountModels(*modelsDir)
		if err != nil {
			fmt.Fprintf(stderr, "table2: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "Table 2: Implementation Complexity of Programming Models Using HAMSTER\n\n%s\n", apicount.Render(rows))
	}
	for _, c := range camps {
		rep, err := bench.Run(c, *par)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		table := stdout
		if *jsonOut != "" {
			if *faults != "" {
				rep.FaultProfile, rep.FaultSeed = *faults, *faultSeed
			}
			blob, err := json.MarshalIndent(rep, "", "  ")
			if err == nil && *jsonOut == "-" {
				_, err = stdout.Write(append(blob, '\n'))
			} else if err == nil {
				err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			table = stderr
		}
		fmt.Fprintln(table, bench.Render(c, rep))
	}
	return 0
}
