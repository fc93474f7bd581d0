// Command benchmark is the repository's benchmark: six workloads through
// the full stack, end-to-end metrics in both kinds of time (the modeled
// virtual time the paper reports, and what the simulator costs the host),
// and per-layer metrics from a traced pass and a ladder of single calls.
// README.md says what each number is for; BENCHMARK.json is the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// hostProcs is the parallelism every run uses, whatever the host has, so
// that two hosts' numbers differ by their cores' speed and not by their
// count; the host block records both.
const hostProcs = 2

// bounds are the shares by which an end-to-end median may get worse, as
// in BENCHMARK.json; every end-to-end metric is better when lower.
var bounds = map[string]float64{
	"setup_s":       0.25,
	"virtual_ms":    0.15,
	"host_pass_ms":  0.25,
	"host_cpu_ms":   0.25,
	"host_alloc_mb": 0.05,
	"host_allocs_k": 0.10,
}

// line is the last line of standard output: the contract's result object.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line() line {
	return line{r.correct(), r.attempted, r.failed, r.metrics.export()}
}

// hostBlock says where the numbers were taken.
type hostBlock struct {
	HostCores  int    `json:"host_cores"`
	GoMaxProcs int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostBlock {
	h := hostBlock{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// document is what -out stores: the result lines of every run made, with
// the host block and the diagnostics the contract's line has no room for.
type document struct {
	Host hostBlock  `json:"host"`
	Seed uint64     `json:"seed"`
	Runs []runEntry `json:"runs"`
}

type runEntry struct {
	Workload           string   `json:"workload"`
	Traced             bool     `json:"traced"`
	TimedPasses        int      `json:"timed_passes"`
	ModeledDriftCells  int      `json:"modeled_drift_cells"`
	ModeledDriftCellID []string `json:"modeled_drift_cell_ids,omitempty"`
	Failures           []string `json:"failures,omitempty"`
	line
}

func entry(r *result) runEntry {
	return runEntry{r.workload, r.traced, r.passes, len(r.drifted), sortedKeys(r.drifted), r.failures, r.line()}
}

func runWorkload(o *options, name string, traced bool) (*result, error) {
	if traced {
		return runTraced(o, name)
	}
	return runUntraced(o, name)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(shortSizes()) {
		names = append(names, w.name)
	}
	return names
}

func main() { os.Exit(benchmark(os.Args[1:], os.Stdout, os.Stderr)) }

// benchmark is main with its arguments, streams and exit code explicit:
// 0 when every cell of every run was correct (and, with -repeat, the two
// sets agree), 1 when not, 2 when the benchmark itself could not run.
func benchmark(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Uint64("seed", 1, "seed of the serve streams and the fault plan; kernel inputs are seedless")
		seconds  = fs.Float64("seconds", 10, "how long the timed passes of one run measure")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass and the ladder")
		short    = fs.Bool("short", false, "smoke-test sizes, one set-up and one timed pass")
		repeat   = fs.Int("repeat", 1, "with 2: run everything twice and fail unless the two sets agree within the bounds")
		out      = fs.String("out", "", "file to store every run's result, host block and diagnostics in")
		traceDir = fs.String("trace-dir", "", "directory to store the traced pass's spans and perfmon event counts in")
		record   = fs.String("write-reference", "", "record checksums and exact modeled results into this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(hostProcs)
	o := &options{seed: *seed, seconds: *seconds, short: *short, traceDir: *traceDir, log: stderr, epoch: processStart}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	if *record != "" {
		ref, err := recordReference(*seed)
		if err != nil {
			return fail(err)
		}
		raw, err := ref.marshal()
		if err == nil {
			err = os.WriteFile(*record, raw, 0o644)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}

	doc := &document{Host: host(), Seed: *seed}
	fmt.Fprintf(stderr, "host: %+v\n", doc.Host)
	var last any
	ok := true
	switch {
	case *repeat >= 2:
		var err error
		if ok, err = selfAgreement(o, doc); err != nil {
			return fail(err)
		}
		last = doc.Runs
	case *name == "all":
		for _, n := range workloadNames() {
			for _, traced := range []bool{false, true} {
				r, err := runWorkload(o, n, traced)
				if err != nil {
					return fail(err)
				}
				doc.Runs = append(doc.Runs, entry(r))
				ok = ok && r.correct()
			}
		}
		last = doc.Runs
	default:
		r, err := runWorkload(o, *name, *trace != 0)
		if err != nil {
			return fail(err)
		}
		doc.Runs = append(doc.Runs, entry(r))
		ok, last = r.correct(), r.line()
	}
	if *out != "" {
		raw, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	raw, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !ok {
		return 1
	}
	return 0
}

// selfAgreement runs every workload twice, untraced and traced, on this
// binary and holds the two sets to the benchmark's own rules: every
// end-to-end median within its bound of the other, every flagged-exact
// count identical. A metric that a run cannot resolve to within its bound
// (its even and odd passes disagree by more) cannot show agreement either
// way and is reported unresolved, which also fails.
func selfAgreement(o *options, doc *document) (bool, error) {
	ok := true
	start := time.Now()
	for _, n := range workloadNames() {
		var untraced, traced [2]*result
		for round := range untraced {
			var err error
			if untraced[round], err = runUntraced(o, n); err != nil {
				return false, err
			}
			if traced[round], err = runTraced(o, n); err != nil {
				return false, err
			}
			doc.Runs = append(doc.Runs, entry(untraced[round]), entry(traced[round]))
			ok = ok && untraced[round].correct() && traced[round].correct()
		}
		for _, d := range endToEnd {
			a, b := untraced[0].metrics.values[d.name], untraced[1].metrics.values[d.name]
			spread := max(untraced[0].resolution[d.name], untraced[1].resolution[d.name])
			verdict := "agrees"
			switch {
			case spread > bounds[d.name]:
				verdict, ok = "UNRESOLVED", false
			case max(a, b) > min(a, b)*(1+bounds[d.name]):
				verdict, ok = "DISAGREES", false
			}
			fmt.Fprintf(o.log, "repeat %-12s %-14s %12.4f %12.4f spread %5.2f%% bound %4.1f%% %s\n",
				n, d.name, a, b, 100*spread, 100*bounds[d.name], verdict)
		}
		for _, pair := range [][2]*result{untraced, traced} {
			for _, k := range sortedKeys(pair[0].exact) {
				if a, b := pair[0].exact[k], pair[1].exact[k]; a != b {
					fmt.Fprintf(o.log, "repeat %-12s exact count %s moved: %d then %d\n", n, k, a, b)
					ok = false
				}
			}
		}
	}
	fmt.Fprintf(o.log, "repeat: both sets in %.0f s, agreement %v\n", time.Since(start).Seconds(), ok)
	return ok, nil
}
