package platform_test

import (
	"reflect"
	"testing"

	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// Compile-time conformance: all five substrates implement the contract.
var (
	_ platform.Substrate = (*swdsm.DSM)(nil)
	_ platform.Substrate = (*hybriddsm.DSM)(nil)
	_ platform.Substrate = (*smp.SMP)(nil)
	_ platform.Substrate = (*ivy.DSM)(nil)
	_ platform.Substrate = (*multidsm.DSM)(nil)
)

// Every counter of Stats is summed by Add: each uint64 field of both
// operands gets a distinct value, so a field Add forgets (it would keep the
// left operand's value) or sums into the wrong place shows.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b platform.Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is %s: teach Add and this test about it", va.Type().Field(i).Name, va.Field(i).Kind())
		}
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[platform.Kind]string{
		platform.SMP:       "hardware-dsm(smp)",
		platform.HybridDSM: "hybrid-dsm",
		platform.SWDSM:     "software-dsm",
		platform.Kind(99):  "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]platform.Kind{
		"smp": platform.SMP, "hardware-dsm": platform.SMP,
		"hybrid-dsm": platform.HybridDSM, "hybriddsm": platform.HybridDSM, "sci-vm": platform.HybridDSM, "numa": platform.HybridDSM,
		"software-dsm": platform.SWDSM, "swdsm": platform.SWDSM, "beowulf": platform.SWDSM,
	} {
		if got, err := platform.ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// An engine name is not a platform: the campaign harness relies on it.
	for _, name := range []string{"", "scope", "ivy", "vax"} {
		if _, err := platform.ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) succeeded", name)
		}
	}
}

func TestSupportsPolicy(t *testing.T) {
	c := platform.Caps{Placement: []memsim.Policy{memsim.Block, memsim.Cyclic}}
	if !c.SupportsPolicy(memsim.Block) || c.SupportsPolicy(memsim.FirstTouch) {
		t.Fatal("SupportsPolicy broken")
	}
}

// Behavioral conformance: the same tiny program runs identically on all
// five substrates (the identical-binary claim of §5.4 at substrate level).
func TestCrossSubstrateEquivalence(t *testing.T) {
	sw, _ := swdsm.New(swdsm.Config{Nodes: 2})
	hy, _ := hybriddsm.New(hybriddsm.Config{Nodes: 2})
	sm, _ := smp.New(smp.Config{CPUs: 2})
	iv, _ := ivy.New(ivy.Config{Nodes: 2})
	mu, _ := multidsm.New(multidsm.Config{Nodes: 2})
	for _, c := range []struct {
		name string
		sub  platform.Substrate
	}{
		{platform.SWDSM.String(), sw}, {platform.HybridDSM.String(), hy}, {platform.SMP.String(), sm},
		{"ivy", iv}, {"multidsm", mu},
	} {
		sub := c.sub
		t.Run(c.name, func(t *testing.T) {
			defer sub.Close()
			r, err := sub.Alloc(memsim.PageSize, "v", memsim.Block, 0)
			if err != nil {
				t.Fatal(err)
			}
			l := sub.NewLock()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 10; i++ {
					sub.Acquire(1, l)
					sub.WriteI64(1, r.Base, sub.ReadI64(1, r.Base)+1)
					sub.Release(1, l)
				}
				sub.Barrier(1)
			}()
			for i := 0; i < 10; i++ {
				sub.Acquire(0, l)
				sub.WriteI64(0, r.Base, sub.ReadI64(0, r.Base)+1)
				sub.Release(0, l)
			}
			sub.Barrier(0)
			<-done
			sub.Acquire(0, l)
			got := sub.ReadI64(0, r.Base)
			sub.Release(0, l)
			if got != 20 {
				t.Fatalf("counter = %d, want 20", got)
			}
		})
	}
}
