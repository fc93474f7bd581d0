package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hamster"
)

// declared is the evidence for the hamster.Config fields no campaign cell
// sets: the committed file, and the text in it, where a measured run sets
// the field. (ROADMAP item 8: a knob with no committed measurement behind
// it is deleted, not documented.)
var declared = map[string]struct{ file, needle, what string }{
	"Threaded":       {"models/pthreads/pthreads.go", "cfg.Threaded = true", "the pthreads, win32 and anl veneers boot threaded (Table 2)"},
	"ParallelNodes":  {"benchmark/cells.go", "ParallelNodes: gated", "the msgring workload's gated cells, until ROADMAP item 1 decides the scheduler"},
	"CheckpointSink": {"internal/bench/campaign.go", "hcfg.CheckpointSink = ", "the serve campaign's crashed-and-recovered cells keep snapshots across attempts"},
}

// TestSurfaceEvidence holds the configuration surface to its evidence:
// hamster.Config has twelve fields, and each is either set non-zero by a
// cell of a registered campaign or declared above with the measurement
// that sets it. Adding a field without a cell or a declaration fails
// here; so does a declaration whose evidence has been deleted. The
// commands' flags and the cluster file's keys are held the same way by
// the tests of the same name in cmd/hamsterrun, cmd/hamsterbench and
// internal/cluster.
func TestSurfaceEvidence(t *testing.T) {
	typ := reflect.TypeOf(hamster.Config{})
	byCell := map[string]string{}
	note := func(campaign string, cl Cluster) {
		v := reflect.ValueOf(cl.config())
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; byCell[name] == "" && !v.Field(i).IsZero() {
				byCell[name] = campaign
			}
		}
	}
	for _, c := range Campaigns(Small()) {
		for _, cell := range c.Cells {
			note(c.Name, cell.Cluster)
			if cell.Baseline != nil {
				note(c.Name, *cell.Baseline)
			}
		}
	}
	if typ.NumField() != 12 {
		t.Errorf("hamster.Config has %d fields, want 12", typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		d, ok := declared[name]
		switch {
		case byCell[name] != "" && ok:
			t.Errorf("Config.%s is set by the %s campaign; drop its declared entry", name, byCell[name])
		case byCell[name] != "":
			t.Logf("Config.%-22s campaign %s", name, byCell[name])
		case !ok:
			t.Errorf("Config.%s has no evidence: no campaign cell sets it and it is not declared — give it a cell, or delete it", name)
		default:
			src, err := os.ReadFile(filepath.Join("..", "..", d.file))
			if err != nil || !strings.Contains(string(src), d.needle) {
				t.Errorf("Config.%s: declared evidence %q is not in %s (%v)", name, d.needle, d.file, err)
			}
			t.Logf("Config.%-22s %s (%s)", name, d.what, d.file)
		}
	}
	for name := range declared {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("declared evidence for Config.%s, which does not exist", name)
		}
	}
}
