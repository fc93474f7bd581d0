package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hamster/internal/apps"
	"hamster/internal/consengine"
)

// The virtual-time bands of the identity gates. Every one of them is
// scheduling wobble that ROADMAP item 1 is to remove: a stolen handler
// charge lands on whichever clock reads first, so goroutine scheduling
// can shift ±15µs between nodes.
const (
	// bandBaseline is the tolerance against committed baselines and
	// between a sequential and a cell-parallel run.
	bandBaseline = 0.001
	// bandRace is what the flat-topology identity relaxes to under the
	// race detector; on a plain build it is bit-exact.
	bandRace = 0.005
	// bandHierSync covers the full core path at scale: above
	// hsync.Threshold nodes the distributed lock queues and tree
	// barriers make attribution schedule-dependent under either
	// scheduler.
	bandHierSync = 0.01
)

// virtualWithin reports whether got is within the relative band of want;
// a zero band demands equality.
func virtualWithin(got, want uint64, band float64) bool {
	return math.Abs(float64(got)-float64(want)) <= float64(want)*band
}

// mustLookup returns a registered campaign, the paper's two at the
// small sizes.
func mustLookup(t *testing.T, name string) Campaign {
	t.Helper()
	c, err := Campaigns(Small()).Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustRun runs a campaign and returns its report.
func mustRun(t *testing.T, c Campaign, parallel int) *Report {
	t.Helper()
	rep, err := Run(c, parallel)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// measureKernel runs one kernel on one cluster through the harness.
func measureKernel(t *testing.T, kernel apps.Kernel, cl Cluster) Row {
	t.Helper()
	row, err := Cell{Workload: "test", Kernel: kernel}.measure(cl)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// loadArtifact reads a committed campaign report from the repository
// root. A missing file, a foreign schema or an empty report fails the
// test: a gate must not switch itself off because its baseline was
// deleted or renamed.
func loadArtifact(t *testing.T, name string) *Report {
	t.Helper()
	rep, err := readArtifact(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func readArtifact(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schema)
	}
	if len(rep.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return &rep, nil
}

// artifactPins says what each committed artifact pins beyond the
// checksum of every row, which always replays bit for bit. The pins are
// the ones the per-campaign replay tests carried before they became this
// table; none is wider.
var artifactPins = map[string]struct {
	// virtual selects the rows (baseline tells a nested baseline leg from
	// its cell) whose virtual time replays inside bandBaseline.
	virtual func(r Row, baseline bool) bool
	// exact selects the rows whose every discrete field replays exactly.
	exact func(r Row) bool
}{
	// The checkpoint-off legs through the core services.
	"BENCH_3.json": {virtual: func(r Row, baseline bool) bool { return baseline }},
	// The 4-node aggregation-off legs on the bare substrate (the numbers
	// BENCH_2.json also carried).
	"BENCH_4.json": {virtual: func(r Row, baseline bool) bool { return baseline && r.Nodes == 4 }},
	// Only the scope rows: the write-invalidate engine's message counts
	// are schedule-dependent under contention, and eager-rc was never
	// pinned.
	"BENCH_6.json": {
		virtual: func(r Row, _ bool) bool { return r.Platform == consengine.ScopeName },
		exact:   func(r Row) bool { return r.Platform == consengine.ScopeName },
	},
	// Checksums only: ivy, and above hsync.Threshold both engines, are
	// schedule-dependent in everything else.
	"BENCH_7.json": {},
	// Serve rows are pure functions of seed and configuration.
	"BENCH_8.json": {exact: func(Row) bool { return true }},
}

// replayArtifact runs the campaign a committed artifact records (or takes
// a fresh report of it) and compares row by row under the artifact's
// pins.
func replayArtifact(t *testing.T, file string, fresh *Report) {
	t.Helper()
	want := loadArtifact(t, file)
	pins, ok := artifactPins[file]
	if !ok {
		t.Fatalf("%s has no entry in artifactPins", file)
	}
	if fresh == nil {
		fresh = mustRun(t, mustLookup(t, want.Campaign), 0)
	}
	if fresh.Campaign != want.Campaign || len(fresh.Rows) != len(want.Rows) {
		t.Fatalf("%s records %d rows of campaign %s, the fresh run has %d of %s",
			file, len(want.Rows), want.Campaign, len(fresh.Rows), fresh.Campaign)
	}
	// discrete masks what no artifact pins exactly: the virtual times,
	// including the phase maxima the artifacts predate.
	discrete := func(r Row) Row {
		r.VirtualNs, r.BreakdownNs, r.Baseline = 0, nil, nil
		r.InitNs, r.AfterInitNs, r.CoreNs, r.BarNs = 0, 0, 0, 0
		return r
	}
	for i := range want.Rows {
		w, g := &want.Rows[i], &fresh.Rows[i]
		if g.id() != w.id() {
			t.Fatalf("%s row %d is %s, the campaign's cell %d is %s", file, i, w.id(), i, g.id())
		}
		for baseline := false; w != nil; w, g, baseline = w.Baseline, g.Baseline, true {
			if g == nil {
				t.Fatalf("%s: %s records a baseline leg, the fresh row has none", file, want.Rows[i].id())
			}
			if g.Check != w.Check {
				t.Errorf("%s: %s (baseline %v) checksum %s, committed %s", file, w.id(), baseline, g.Check, w.Check)
			}
			if pins.virtual != nil && pins.virtual(*w, baseline) && !virtualWithin(g.VirtualNs, w.VirtualNs, bandBaseline) {
				t.Errorf("%s: %s (baseline %v) virtual time %d strays more than %.1f%% from committed %d",
					file, w.id(), baseline, g.VirtualNs, 100*bandBaseline, w.VirtualNs)
			}
			if pins.exact != nil && pins.exact(*w) && !reflect.DeepEqual(discrete(*g), discrete(*w)) {
				t.Errorf("%s: %s no longer replays:\ncommitted: %+v\nfresh:     %+v", file, w.id(), discrete(*w), discrete(*g))
			}
		}
	}
}

// A committed baseline that is missing, carries a foreign schema or
// holds no rows must fail the gate that reads it, not skip it.
func TestLoadArtifactRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"missing file":   filepath.Join(dir, "BENCH_0.json"),
		"foreign schema": write("old.json", `{"schema": "hamster/serve/v8", "results": [{"workload": "kv"}]}`),
		"no rows":        write("empty.json", `{"schema": "`+schema+`", "results": []}`),
		"not json":       write("bad.json", `{`),
	}
	for name, path := range cases {
		if rep, err := readArtifact(path); err == nil {
			t.Errorf("%s: loaded %+v, want an error", name, rep)
		}
	}
	for file := range artifactPins {
		if rep := loadArtifact(t, file); rep.Campaign == "" {
			t.Errorf("%s names no campaign", file)
		}
	}
}

// Run's one invariant: two cells of a group that compute different
// checksums fail the campaign, and the error names both.
func TestRunAgreementCheck(t *testing.T) {
	cell := func(name string, n int) Cell {
		return Cell{Workload: name, Group: "g", Cluster: Cluster{Platform: "swdsm", Nodes: 2},
			Kernel: func(m apps.Machine) apps.Result { return apps.MatMult(m, n) }}
	}
	_, err := Run(Campaign{Name: "disagree", Cells: []Cell{cell("small", 8), cell("large", 12)}}, 1)
	if err == nil {
		t.Fatal("two cells of one group computed different checksums and the campaign passed")
	}
	for _, want := range []string{"small/swdsm/2", "large/swdsm/2", `"g"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// A baseline leg is held to the same group.
	base := Cluster{Platform: "swdsm", Nodes: 2}
	agree := cell("paired", 8)
	agree.Baseline = &base
	rep, err := Run(Campaign{Name: "agree", Cells: []Cell{agree, cell("again", 8)}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[0].Baseline == nil || rep.Rows[0].Baseline.Check != rep.Rows[1].Check {
		t.Fatalf("baseline leg missing or off its group's checksum: %+v", rep.Rows[0])
	}
}

// Every campaign names only known columns and unique cells, and the
// registry is the eight the CLI documents, of which exactly the paper's
// two read the sizes.
func TestRegistryWellFormed(t *testing.T) {
	want := []string{"figures", "ablations", "kernels", "checkpoint", "aggregation", "engines", "scaling", "serve"}
	if got := Campaigns(Small()).Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry %v, want %v", got, want)
	}
	// What a campaign is at a size: its description, labels and
	// cluster descriptions.
	sig := func(c Campaign) string {
		s := c.Description
		for _, cell := range c.Cells {
			s += fmt.Sprintf("%+v %+v\n", cell.labels(cell.Cluster), cell.Cluster.config())
		}
		return s
	}
	small, paper := Campaigns(Small()), Campaigns(Paper())
	for i, c := range small {
		if differ := sig(c) != sig(paper[i]); differ != c.Sized {
			t.Errorf("%s: Sized is %v, but the small and paper sizes build different campaigns: %v", c.Name, c.Sized, differ)
		}
	}
	for _, c := range small {
		seen := map[string]bool{}
		for _, cell := range c.Cells {
			id := cell.labels(cell.Cluster).id()
			if cell.Serve != nil {
				id += "/" + cell.Group // the headline cell differs from its twin only in population
			}
			if seen[id] {
				t.Errorf("%s: two cells are labelled %s", c.Name, id)
			}
			seen[id] = true
		}
		rows := make([]Row, len(c.Cells))
		for i, cell := range c.Cells {
			rows[i] = cell.labels(cell.Cluster)
		}
		Render(c, &Report{Rows: rows}) // panics on an unknown column
	}
	if _, err := small.Lookup("walltime"); err == nil || !strings.Contains(err.Error(), "figures, ablations, kernels") {
		t.Fatalf("unknown campaign: err = %v", err)
	}
}
