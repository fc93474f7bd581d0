package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// contract is the part of BENCHMARK.json the program has to match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram holds BENCHMARK.json and the program's own
// tables to each other: same workloads, same metrics, same units, same
// bounds, every name well formed and used once.
func TestContractMatchesProgram(t *testing.T) {
	c := loadContract(t)
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !wellFormed.MatchString(name) {
			t.Errorf("name %q is not well formed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	names := workloadNames()
	if len(c.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(names))
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, names[i])
		}
	}
	for _, family := range []struct {
		json []contractMetric
		defs []metricDef
	}{{c.EndToEnd, endToEnd}, {c.PerLayer, perLayer}} {
		if len(family.json) != len(family.defs) {
			t.Fatalf("BENCHMARK.json has %d metrics in a family, the program %d", len(family.json), len(family.defs))
		}
		for i, m := range family.json {
			unique(m.Name)
			if d := family.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
	for _, m := range c.EndToEnd {
		if bounds[m.Name] != m.Bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, bounds[m.Name])
		}
	}
}

func shortOptions() *options {
	return &options{seed: 1, seconds: 0.01, short: true, log: io.Discard}
}

// TestSmoke runs every workload at the short sizes, untraced and traced,
// and checks what must hold on any host: every metric is emitted once,
// nothing fails, the books of the traced pass balance, and every rung of
// the ladder measured something. It asserts no wall time.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := shortOptions()
			o.traceDir = t.TempDir()
			for _, traced := range []bool{false, true} {
				r, err := runWorkload(o, name, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d cells failed: %v", traced, r.failed, r.attempted, r.failures)
				}
				if missing := r.metrics.missing(); len(missing) > 0 {
					t.Fatalf("traced=%v: metrics never set: %v", traced, missing)
				}
				for name, v := range r.line().Metrics {
					if v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v [%s]", name, v.Value, v.Unit)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if r.metrics.values[d.name] <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, r.metrics.values[d.name])
						}
					}
					continue
				}
				if r.clockNs != r.categoryNs || r.clockNs == 0 {
					t.Errorf("vclock categories sum to %d ns, the clocks to %d ns", r.categoryNs, r.clockNs)
				}
				// What lies between the spans and the pass is the driver's
				// loop: a goroutine and a timer per cell.
				if gap := float64(r.tracedWallNs - r.spanSelfNs); gap < 0 || gap > 0.02*float64(r.tracedWallNs) {
					t.Errorf("span self-times sum to %d ns of a %d ns pass", r.spanSelfNs, r.tracedWallNs)
				}
				for _, d := range perLayer {
					if isRung(d.name) && r.metrics.values[d.name] <= 0 {
						t.Errorf("rung %s = %v ns, want > 0", d.name, r.metrics.values[d.name])
					}
				}
				if _, err := os.Stat(o.traceDir + "/" + name + ".trace.json"); err != nil {
					t.Errorf("the traced pass left no span file: %v", err)
				}
			}
		})
	}
}

// isRung tells a ladder rung from the other metrics in ns.
func isRung(name string) bool {
	for _, r := range ladder() {
		if r.name == name && !r.hidden {
			return true
		}
	}
	for _, r := range overheadRungs() {
		if r.name == name {
			return true
		}
	}
	return false
}

// TestWrongChecksumFails plants a wrong checksum in the reference and
// expects failed operations and a non-zero exit.
func TestWrongChecksumFails(t *testing.T) {
	committed := referenceJSON
	defer func() { referenceJSON = committed }()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	planted := false
	for _, c := range workloads(shortSizes())[4].cells { // msgring
		ref.Checksums[c.group] = "12345"
		planted = true
	}
	if !planted {
		t.Fatal("no cell to plant a wrong checksum on")
	}
	if referenceJSON, err = ref.marshal(); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	code := benchmark([]string{"-short", "-workload", "msgring", "-seconds", "0.01"}, &stdout, io.Discard)
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	var got line
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &got); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.Bytes())
	}
	if got.Correct || got.Failed == 0 || got.Failed > got.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want failures", got.Correct, got.Failed, got.Attempted)
	}
}

// TestReferenceCoversEveryCell keeps reference.json complete: a cell
// without a committed checksum could not fail on a wrong answer.
func TestReferenceCoversEveryCell(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range []sizes{fullSizes(), shortSizes()} {
		for _, w := range workloads(sz) {
			for _, c := range w.cells {
				if _, ok := ref.Checksums[c.group]; !ok {
					t.Errorf("%s: no checksum for group %s", c.id, c.group)
				}
			}
		}
	}
}
