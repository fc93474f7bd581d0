package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hamster"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/models/jiajia"
)

// Every command line the command cannot honor exits 2 before anything
// boots. What is a relation between flags is the command's to say; what
// is a cluster that cannot be built is Config.Validate's, and its error
// reaches the user verbatim.
func TestFlagsThroughTheFrontDoor(t *testing.T) {
	validate := func(cfg hamster.Config) string {
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%+v validates", cfg)
		}
		return err.Error() + "\n"
	}
	sw := hamster.Config{Platform: hamster.SWDSM, Nodes: 4}
	with := func(edit func(*hamster.Config)) hamster.Config {
		cfg := sw
		edit(&cfg)
		return cfg
	}
	cases := []rejected{
		{"incremental without checkpoint", []string{"-incremental"}, "-incremental requires -checkpoint"},
		{"prefetch without aggregate", []string{"-prefetch"}, "-prefetch requires -aggregate"},
		{"recover without checkpoint", []string{"-recover", "-faults", "crash-node"}, "-recover requires -checkpoint"},
		{"recover without faults", []string{"-recover", "-checkpoint", "2"}, "-recover requires a -faults profile"},
		{"recover with verify", []string{"-recover", "-checkpoint", "2", "-faults", "crash-node", "-verify"}, "-verify, -timeline, and -trace are not supported"},
		{"recover with timeline", []string{"-recover", "-checkpoint", "2", "-faults", "crash-node", "-timeline"}, "-verify, -timeline, and -trace are not supported"},
		{"recover with trace", []string{"-recover", "-checkpoint", "2", "-faults", "crash-node", "-trace", "t.json"}, "-verify, -timeline, and -trace are not supported"},
		{"checkpoint with verify", []string{"-checkpoint", "2", "-verify"}, "-verify, -timeline, and -trace are not supported"},
		{"checkpoint with timeline", []string{"-checkpoint", "2", "-timeline"}, "-verify, -timeline, and -trace are not supported"},
		{"checkpoint with trace", []string{"-checkpoint", "2", "-trace", filepath.Join(t.TempDir(), "t.json")}, "-verify, -timeline, and -trace are not supported"},
		{"unknown bench", []string{"-bench", "fft"}, `unknown benchmark "fft"`},
		{"unknown fault profile", []string{"-faults", "gremlins"}, "lossy-ethernet"},
		{"unknown platform", []string{"-platform", "vax"}, `unknown platform "vax"`},
		{"missing config file", []string{"-config", filepath.Join(t.TempDir(), "absent.conf")}, "absent.conf"},
		{"faultseed without faults", []string{"-faultseed", "7", "-bench", "pi", "-n", "1000", "-nodes", "2"}, "-faultseed seeds a fault campaign"},
		{"iters with matmult", []string{"-bench", "matmult", "-iters", "3"}, "matmult takes no iteration count"},
		{"iters with pi", []string{"-bench", "pi", "-iters", "0"}, "pi takes no iteration count"},
		{"iters with lu", []string{"-bench", "lu", "-iters", "2"}, "lu takes no iteration count"},
		{"negative n", []string{"-bench", "sor", "-n", "-64"}, "-n and -iters must be >= 0"},
		{"negative iters", []string{"-bench", "water", "-iters", "-1"}, "-n and -iters must be >= 0"},
		{"platform with config", []string{"-config", "two.conf", "-platform", "smp"}, "-config replaces -platform and -nodes"},
		{"nodes with config", []string{"-config", "two.conf", "-nodes", "8"}, "-config replaces -platform and -nodes"},

		{"no nodes", []string{"-nodes", "0"},
			validate(hamster.Config{Platform: hamster.SWDSM})},
		{"negative checkpoint", []string{"-checkpoint", "-1"},
			validate(with(func(c *hamster.Config) { c.CheckpointEvery = -1 }))},
		{"unknown engine", []string{"-engine", "tso"},
			validate(with(func(c *hamster.Config) { c.Engine = "tso" }))},
		{"unknown topology", []string{"-topology", "torus"},
			validate(with(func(c *hamster.Config) { c.Topology = "torus" }))},
		{"engine on smp", []string{"-platform", "smp", "-engine", "ivy"},
			validate(hamster.Config{Platform: hamster.SMP, Nodes: 4, Engine: "ivy"})},
		{"topology on hybrid", []string{"-platform", "hybrid-dsm", "-topology", "rack"},
			validate(hamster.Config{Platform: hamster.HybridDSM, Nodes: 4, Topology: "rack"})},
		{"checkpoint on smp", []string{"-platform", "smp", "-checkpoint", "2"},
			validate(hamster.Config{Platform: hamster.SMP, Nodes: 4, CheckpointEvery: 2})},
		{"aggregate on hybrid", []string{"-platform", "hybrid-dsm", "-aggregate"},
			validate(hamster.Config{Platform: hamster.HybridDSM, Nodes: 4, SWDSMAggregation: hamster.Aggregation{Batch: true}})},
		{"ivy with checkpoint", []string{"-engine", "ivy", "-checkpoint", "2"},
			validate(with(func(c *hamster.Config) { c.Engine, c.CheckpointEvery = "ivy", 2 }))},
		{"ivy with aggregate", []string{"-engine", "ivy", "-aggregate", "-prefetch"},
			validate(with(func(c *hamster.Config) {
				c.Engine, c.SWDSMAggregation = "ivy", hamster.Aggregation{Batch: true, Prefetch: true}
			}))},
	}
	rejects(t, cases)
}

// rejected is a command line that must exit 2 with nothing booted and
// nothing on stdout.
type rejected struct {
	name string
	args []string
	want string // on stderr; ending in a newline means it is all of stderr
}

func rejects(t *testing.T, cases []rejected) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(c.args, &stdout, &stderr); status != 2 {
				t.Fatalf("exit status %d, want 2; stderr:\n%s", status, &stderr)
			}
			if strings.HasSuffix(c.want, "\n") {
				if stderr.String() != c.want {
					t.Errorf("stderr is not Validate's error verbatim:\n got %q\nwant %q", &stderr, c.want)
				}
			} else if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr does not mention %q:\n%s", c.want, &stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("a rejected command line wrote to stdout:\n%s", &stdout)
			}
		})
	}
}

// hamsterrun no longer serves (hamsterbench -campaign serve is the entry
// point): every command line of the old -serve/-clients/-zipf family, and
// -pnodes, is rejected by the flag package before any node boots.
func TestServeOptionsRejects(t *testing.T) {
	rejects(t, []rejected{
		{"clients without serve", []string{"-clients", "1000"}, "flag provided but not defined: -clients"},
		{"zipf without serve", []string{"-zipf", "0.99"}, "flag provided but not defined: -zipf"},
		{"serve with explicit bench", []string{"-serve", "kv", "-bench", "pi"}, "flag provided but not defined: -serve"},
		{"zero clients", []string{"-serve", "kv", "-clients", "0"}, "flag provided but not defined: -serve"},
		{"negative clients", []string{"-serve", "kv", "-clients", "-5"}, "flag provided but not defined: -serve"},
		{"negative zipf", []string{"-serve", "kv", "-zipf", "-0.5"}, "flag provided but not defined: -serve"},
		{"unknown workload", []string{"-serve", "webscale"}, "flag provided but not defined: -serve"},
		{"one node", []string{"-serve", "kv", "-nodes", "1"}, "flag provided but not defined: -serve"},
		{"pnodes", []string{"-pnodes"}, "flag provided but not defined: -pnodes"},
	})
}

// One tiny run end to end, by flags and from a cluster file: the header
// names the cluster and the result lines are there.
func TestTinyRun(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "two.conf")
	if err := os.WriteFile(conf, []byte("platform = software-dsm\nnode = a\nnode = b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-bench", "pi", "-n", "1000", "-nodes", "2"},
		{"-bench", "pi", "-n", "1000", "-config", conf},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(args, &stdout, &stderr); status != 0 {
			t.Fatalf("%v: exit status %d; stderr:\n%s", args, status, &stderr)
		}
		out := stdout.String()
		if !strings.Contains(out, "pi with 1000 intervals on software-dsm with 2 nodes") ||
			!strings.Contains(out, "\ncheck      3.14159") || !strings.Contains(out, "\ntotal      ") {
			t.Errorf("%v: missing header, check or total line:\n%s", args, out)
		}
	}
}

// A run that aborts after validation — a planned crash with nothing to
// recover it — exits 1 through the profile flush: the CPU profile of
// exactly the run one wants to look at must not be empty.
func TestAbortedRunKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
	var stdout, stderr bytes.Buffer
	status := run([]string{"-bench", "sor-opt", "-n", "64", "-nodes", "4", "-faults", "crash-node",
		"-cpuprofile", cpu, "-memprofile", heap}, &stdout, &stderr)
	if status != 1 || !strings.Contains(stderr.String(), "run aborted") {
		t.Fatalf("exit status %d, want 1 and an abort diagnostic; stderr:\n%s", status, &stderr)
	}
	for _, path := range []string{cpu, heap} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s was not flushed: %v", filepath.Base(path), err)
		}
	}
}

// The fault report's retry count is exact even when the event recorder
// has no room left: every node's ring is full before a lossy run starts,
// so not one EvRetry is retained, and the report must still print the
// active-message layer's counter and say that events were dropped.
func TestFaultReportRetriesSurviveFullRings(t *testing.T) {
	plan, err := simnet.FaultProfile("very-lossy", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := jiajia.Boot(hamster.Config{Platform: hamster.SWDSM, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	rt := sys.Runtime()
	rt.SetFaults(plan)
	rec := rt.Perf()
	rec.Enable()
	for n := 0; n < rec.Nodes(); n++ {
		for i := 0; i < perfmon.DefaultCapacity; i++ {
			rec.Record(n, perfmon.EvService, 0, 0, 0, 0)
		}
	}
	kernel, _, _ := pickKernel("sor-opt", 64, 2)
	if _, err := runGuarded(sys, kernel); err != nil {
		t.Fatal(err)
	}

	var want uint64
	for n := 0; n < rt.Nodes(); n++ {
		r, _ := rt.AMsg().Stats(simnet.NodeID(n)).Faults()
		want += r
	}
	if want == 0 {
		t.Fatal("the lossy plan caused no retries; the test proves nothing")
	}
	var out bytes.Buffer
	faultReport(rt, &out)
	if line := fmt.Sprintf("retries       %d\n", want); !strings.Contains(out.String(), line) {
		t.Errorf("report does not print the layer's %d retries:\n%s", want, &out)
	}
	if !strings.Contains(out.String(), "events dropped ") {
		t.Errorf("report hides that the recorder dropped events:\n%s", &out)
	}
}

// flagEvidence is hamsterrun's half of the surface-evidence matrix (the
// other halves: internal/bench for hamster.Config, internal/cluster for
// the file keys, cmd/hamsterbench for its flags). A flag earns its place
// by setting a hamster.Config field — whose own evidence internal/bench
// holds — or by naming the committed file and the text in it that
// exercises what the flag turns on. A flag with neither fails here.
var flagEvidence = map[string]struct{ field, file, needle string }{
	"platform":    {field: "Platform"},
	"nodes":       {field: "Nodes"},
	"engine":      {field: "Engine"},
	"topology":    {field: "Topology"},
	"aggregate":   {field: "SWDSMAggregation"},
	"prefetch":    {field: "SWDSMAggregation"},
	"checkpoint":  {field: "CheckpointEvery"},
	"incremental": {field: "CheckpointIncremental"},
	// The §5.4 experiment itself: which program, at which size.
	"bench": {file: "internal/bench/campaigns.go", needle: "func standardKernels()"},
	"n":     {file: "internal/bench/campaigns.go", needle: "func standardKernels()"},
	"iters": {file: "internal/bench/campaigns.go", needle: "func standardKernels()"},
	// The cluster file: its keys are held by internal/cluster's matrix.
	"config": {file: "internal/cluster/cluster_test.go", needle: "func TestSurfaceEvidence("},
	// Fault campaigns: the 64-node lossy-wire gate draws its plans from the
	// same profiles; crash recovery has its acceptance run.
	"faults":    {file: "internal/bench/scaling_test.go", needle: "simnet.FaultProfile("},
	"faultseed": {file: "internal/bench/scaling_test.go", needle: "simnet.FaultProfile("},
	"recover":   {file: "internal/bench/crashrecovery_test.go", needle: "func TestCrashRecoveryKernels("},
	// §6's formal consistency check over a traced run.
	"verify": {file: "example_test.go", needle: "rt.CheckConsistency()"},
	// Four output formats awaiting ROADMAP item 6's one metrics surface;
	// until then each is held by the test of the report it prints.
	"monitor":       {file: "hamster_test.go", needle: "hamster.ClusterReport(rt)"},
	"timeline":      {file: "internal/core/core_test.go", needle: "rt.AttachSampler()"},
	"trace":         {file: "internal/perfmon/perfmon_test.go", needle: "WriteChromeTrace("},
	"timebreakdown": {file: "internal/perfmon/perfmon_test.go", needle: "func TestSummaryRowsSumExactly("},
	// Host profiling of the simulator: the benchmark's attribution workflow.
	"cpuprofile": {file: "cmd/hamsterrun/main_test.go", needle: "func TestAbortedRunKeepsProfile("},
	"memprofile": {file: "cmd/hamsterrun/main_test.go", needle: "func TestAbortedRunKeepsProfile("},
}

// TestSurfaceEvidence walks the command's flag set: 22 flags, each with
// evidence, and no evidence entry for a flag that is gone.
func TestSurfaceEvidence(t *testing.T) {
	fs, _ := newFlags(io.Discard)
	flags := 0
	fs.VisitAll(func(f *flag.Flag) {
		flags++
		ev, ok := flagEvidence[f.Name]
		switch {
		case !ok:
			t.Errorf("flag -%s has no evidence: give it a committed cell that needs it (flagEvidence), or delete it", f.Name)
		case ev.field != "":
			if _, ok := reflect.TypeOf(hamster.Config{}).FieldByName(ev.field); !ok {
				t.Errorf("flag -%s claims Config.%s, which does not exist", f.Name, ev.field)
			}
		default:
			src, err := os.ReadFile(filepath.Join("..", "..", ev.file))
			if err != nil || !strings.Contains(string(src), ev.needle) {
				t.Errorf("flag -%s: its evidence %q is not in %s (%v)", f.Name, ev.needle, ev.file, err)
			}
		}
	})
	if flags != 22 || len(flagEvidence) != flags {
		t.Errorf("hamsterrun has %d flags and %d evidence entries, want 22 of each", flags, len(flagEvidence))
	}
}
