package platform_test

import (
	"strings"
	"testing"

	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// NewBase is the construction prologue of every substrate: each case is
// one thing a substrate's New used to do itself.
func TestNewBase(t *testing.T) {
	space := memsim.NewSpace(2)
	clocks := []*vclock.Clock{{}, {}}
	custom := machine.Default()
	custom.Name = "custom"
	custom.CPU.FlopNs = 7
	for _, c := range []struct {
		name    string
		nodes   int
		params  machine.Params
		space   *memsim.Space
		clocks  []*vclock.Clock
		wantErr string // substring; "" = succeeds
		check   func(t *testing.T, b platform.Base)
	}{
		{name: "zero nodes", nodes: 0, wantErr: "somepkg: need at least one node, got 0"},
		{name: "negative nodes", nodes: -3, wantErr: "somepkg: need at least one node, got -3"},
		{name: "clock count mismatch", nodes: 3, clocks: clocks, wantErr: "somepkg: 2 clocks for 3 nodes"},
		{name: "defaults", nodes: 3, check: func(t *testing.T, b platform.Base) {
			if b.Params() != machine.Default() {
				t.Errorf("zero Params became %q, want machine.Default()", b.Params().Name)
			}
			if b.Space() == nil || b.Space() == space {
				t.Error("nil Space was not replaced by a fresh one")
			}
			if b.Nodes() != 3 {
				t.Fatalf("Nodes() = %d, want 3", b.Nodes())
			}
			for i := 0; i < 3; i++ {
				if b.Clock(i) == nil || (i > 0 && b.Clock(i) == b.Clock(i-1)) {
					t.Errorf("clock %d is not a fresh clock of its own", i)
				}
			}
		}},
		{name: "shared space and clocks adopted", nodes: 2, params: custom, space: space, clocks: clocks,
			check: func(t *testing.T, b platform.Base) {
				if b.Space() != space {
					t.Error("shared Space was not adopted")
				}
				for i, c := range clocks {
					if b.Clock(i) != c {
						t.Errorf("shared clock %d was not adopted", i)
					}
				}
				if b.Params().Name != "custom" {
					t.Errorf("Params = %q, want the caller's", b.Params().Name)
				}
				b.Compute(1, 3)
				if got := clocks[1].Now(); got != 21 {
					t.Errorf("Compute(1, 3 flops) at 7 ns/flop moved the shared clock to %d, want 21", got)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := platform.NewBase("somepkg", c.nodes, c.params, c.space, c.clocks)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, b)
		})
	}
}

// Every substrate's New passes its own package name to the chassis.
func TestSubstrateRejectionsNameThePackage(t *testing.T) {
	_, errSMP := smp.New(smp.Config{})
	_, errHy := hybriddsm.New(hybriddsm.Config{})
	_, errSW := swdsm.New(swdsm.Config{})
	_, errIvy := ivy.New(ivy.Config{Nodes: -1})
	_, errMulti := multidsm.New(multidsm.Config{})
	for pkg, err := range map[string]error{
		"smp": errSMP, "hybriddsm": errHy, "swdsm": errSW, "ivy": errIvy, "multidsm": errMulti,
	} {
		if err == nil || !strings.HasPrefix(err.Error(), pkg+": need at least one node") {
			t.Errorf("%s.New with no nodes: err = %v", pkg, err)
		}
	}
}
