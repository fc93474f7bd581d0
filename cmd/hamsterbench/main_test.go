package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamster/internal/apps"
	"hamster/internal/bench"
)

// Every flag combination the command cannot honor exits 2 before
// anything runs, with a message that names the fix.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // every one must appear on stderr
	}{
		{"unknown campaign lists the registry", []string{"-campaign", "walltime", "-json", "-"},
			[]string{`unknown campaign "walltime"`, "figures", "ablations", "kernels", "checkpoint", "aggregation", "engines", "scaling", "serve"}},
		{"faults on another campaign", []string{"-campaign", "engines", "-json", "-", "-faults", "lossy-ethernet"},
			[]string{"-campaign kernels"}},
		{"faults without a campaign", []string{"-faults", "lossy-ethernet"}, []string{"-campaign kernels"}},
		{"unknown fault profile", []string{"-campaign", "kernels", "-json", "-", "-faults", "gremlins"}, []string{"gremlins"}},
		{"json without a campaign", []string{"-json", "-"}, []string{"add -campaign NAME"}},
		{"campaign with a figure flag", []string{"-campaign", "figures", "-fig2"}, []string{"flag provided but not defined: -fig2"}},
		{"campaign with table2", []string{"-campaign", "engines", "-table2"}, []string{"drop -table2"}},
		{"size with an unsized campaign", []string{"-campaign", "engines", "-json", "/dev/null", "-size", "paper"}, []string{"-size", "drop -size"}},
		{"size with table2 alone", []string{"-table2", "-size", "small"}, []string{"drop -size"}},
		{"models without table2", []string{"-campaign", "engines", "-models", "/nonexistent"}, []string{"drop -models"}},
		{"faultseed without faults", []string{"-campaign", "engines", "-faultseed", "9"}, []string{"add -faults PROFILE"}},
		{"negative parallel", []string{"-campaign", "engines", "-json", "-", "-parallel", "-1"}, []string{"-parallel must be >= 0"}},
		{"unknown size", []string{"-size", "huge"}, []string{`unknown -size "huge"`}},
		{"retired mode flag", []string{"-json", "-", "-engines"}, []string{"flag provided but not defined: -engines"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(c.args, &stdout, &stderr, bench.Campaigns); status != 2 {
				t.Fatalf("exit status %d, want 2; stderr:\n%s", status, &stderr)
			}
			for _, want := range c.want {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr does not mention %q:\n%s", want, &stderr)
				}
			}
			if stdout.Len() != 0 {
				t.Errorf("a rejected command line wrote to stdout:\n%s", &stdout)
			}
		})
	}
}

// -campaign engines -json - writes one envelope under the one schema.
func TestCampaignEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engines campaign")
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-campaign", "engines", "-json", "-", "-parallel", "2"}, &stdout, &stderr, bench.Campaigns); status != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", status, &stderr)
	}
	var rep bench.Report
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if dec.More() {
		t.Fatal("stdout holds more than one JSON value")
	}
	if rep.Schema != "hamster/campaign/v1" || rep.Campaign != "engines" || len(rep.Rows) != 24 {
		t.Fatalf("schema %q campaign %q rows %d, want %q engines 24", rep.Schema, rep.Campaign, len(rep.Rows), "hamster/campaign/v1")
	}
	if !strings.Contains(stderr.String(), "sequential") {
		t.Errorf("no table on stderr:\n%s", &stderr)
	}
}

// Without a selection flag the command prints the paper's evaluation —
// Table 2, then the figures and ablations campaigns — and without -json a
// campaign's table goes to stdout.
func TestPaperEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figures and ablations campaigns")
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-size", "small", "-models", "../../models", "-parallel", "2"},
			[]string{"Table 2:", "Table 1:", "Figure 2:", "Figure 3:", "Figure 4:", "Ablations:"}},
		{[]string{"-campaign", "ablations", "-size", "small", "-parallel", "2"},
			[]string{"Campaign ablations:", "posted remote writes"}},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr, bench.Campaigns); status != 0 || stderr.Len() != 0 {
			t.Fatalf("%v: exit status %d; stderr:\n%s", tc.args, status, &stderr)
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: stdout does not hold %q:\n%s", tc.args, want, &stdout)
			}
		}
	}
}

// A campaign that fails after validation — here two cells of one group
// computing different checksums — exits 1 through the profile flush: the
// CPU profile of exactly the run one wants to look at must not be empty.
func TestFailingCampaignKeepsProfile(t *testing.T) {
	cell := func(name string, n int) bench.Cell {
		return bench.Cell{Workload: name, Group: "g", Cluster: bench.Cluster{Platform: "swdsm", Nodes: 2},
			Kernel: func(m apps.Machine) apps.Result { return apps.MatMult(m, n) }}
	}
	registry := func(sz bench.Sizes) bench.Registry {
		return append(bench.Campaigns(sz), bench.Campaign{Name: "disagree", Cells: []bench.Cell{cell("small", 8), cell("large", 12)}})
	}
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
	var stdout, stderr bytes.Buffer
	status := run([]string{"-campaign", "disagree", "-json", filepath.Join(dir, "out.json"),
		"-cpuprofile", cpu, "-memprofile", heap}, &stdout, &stderr, registry)
	if status != 1 || !strings.Contains(stderr.String(), "small/swdsm/2") {
		t.Fatalf("exit status %d, want 1 naming the cells; stderr:\n%s", status, &stderr)
	}
	for _, path := range []string{cpu, heap} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s was not flushed: %v", filepath.Base(path), err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out.json")); err == nil {
		t.Error("a failed campaign still wrote its report")
	}
}

// flagEvidence is hamsterbench's part of the surface-evidence matrix (see
// TestSurfaceEvidence in internal/bench): each flag names the committed
// test that holds the table, figure, artifact or property the flag
// selects. A flag with no entry fails tier-1.
var flagEvidence = map[string]struct{ file, needle string }{
	"size":       {"internal/bench/paper_test.go", "func TestFigure2OverheadIsSingleDigit("},
	"models":     {"internal/apicount/apicount_test.go", "func TestCountModelsOnRealTree("},
	"table2":     {"internal/apicount/apicount_test.go", "func TestCountModelsOnRealTree("},
	"campaign":   {"internal/bench/campaign_test.go", "var artifactPins = "},
	"json":       {"internal/bench/campaign_test.go", "var artifactPins = "},
	"faults":     {"internal/bench/faultcampaign_test.go", "func TestFaultCampaignKernels("},
	"faultseed":  {"internal/bench/faultcampaign_test.go", "func TestFaultCampaignKernels("},
	"parallel":   {"internal/bench/parallel_test.go", "func TestParallelRunnerByteIdentity("},
	"cpuprofile": {"cmd/hamsterbench/main_test.go", "func TestFailingCampaignKeepsProfile("},
	"memprofile": {"cmd/hamsterbench/main_test.go", "func TestFailingCampaignKeepsProfile("},
}

func TestSurfaceEvidence(t *testing.T) {
	// -h makes the flag package print every defined flag (its own
	// VisitAll) to stderr, one "  -name ..." line each.
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr, bench.Campaigns)
	flags := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		flags++
		name := strings.Fields(line)[0][1:]
		ev, ok := flagEvidence[name]
		if !ok {
			t.Errorf("flag -%s has no evidence: name the committed test that holds what it selects (flagEvidence), or delete it", name)
			continue
		}
		src, err := os.ReadFile(filepath.Join("..", "..", ev.file))
		if err != nil || !strings.Contains(string(src), ev.needle) {
			t.Errorf("flag -%s: its evidence %q is not in %s (%v)", name, ev.needle, ev.file, err)
		}
	}
	if flags != 10 || len(flagEvidence) != flags {
		t.Errorf("hamsterbench has %d flags and %d evidence entries, want 10 of each", flags, len(flagEvidence))
	}
}
