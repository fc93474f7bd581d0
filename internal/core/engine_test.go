package core

import (
	"strings"
	"testing"

	"hamster/internal/consengine"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/swdsm"
)

func TestEngineSelection(t *testing.T) {
	for _, tc := range []struct {
		engine string
		want   ConsModel
	}{
		{"", Scope},
		{"scope", Scope},
		{"eager-rc", Release},
		{"ivy", Sequential},
	} {
		rt, err := New(Config{Platform: platform.SWDSM, Nodes: 2, Engine: tc.engine})
		if err != nil {
			t.Fatalf("Engine %q: %v", tc.engine, err)
		}
		eng, ok := rt.Substrate().(consengine.Engine)
		if !ok {
			t.Fatalf("Engine %q: substrate is not a consengine.Engine", tc.engine)
		}
		if got := eng.DeclaredModel(); got != tc.want {
			t.Fatalf("Engine %q: native model = %v, want %v", tc.engine, got, tc.want)
		}
		rt.Close()
	}
}

func TestEngineSelectionSeparateMessaging(t *testing.T) {
	rt, err := New(Config{Platform: platform.SWDSM, Nodes: 2, Engine: "ivy",
		Messaging: machine.Separate})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.AMsg() == nil {
		t.Fatal("separate-messaging ivy must expose its private amsg layer")
	}
	e := rt.Env(0)
	r, err := e.Mem.Alloc(memsim.PageSize, AllocOpts{Policy: memsim.Fixed, FixedNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.WriteF64(r.Base, 2.5)
	if got := rt.Env(1).ReadF64(r.Base); got != 2.5 {
		t.Fatalf("cross-node read = %v", got)
	}
}

func TestEngineValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"unknown name", Config{Platform: platform.SWDSM, Nodes: 2, Engine: "tso"}, "tso"},
		{"non-DSM platform", Config{Platform: platform.SMP, Nodes: 2, Engine: "ivy"}, "software DSM"},
		{"ivy+checkpoint", Config{Platform: platform.SWDSM, Nodes: 2, Engine: "ivy", CheckpointEvery: 4}, "checkpointing"},
		{"ivy+aggregation", Config{Platform: platform.SWDSM, Nodes: 2, Engine: "ivy",
			SWDSMAggregation: swdsm.Aggregation{Batch: true}}, "aggregation"},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Fatalf("%s: expected a setup error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// nativeModel is the model a runtime's engine declares; a hardware
// platform declares through its capability string.
func nativeModel(rt *Runtime) ConsModel {
	if e, ok := rt.sub.(consengine.Engine); ok {
		return e.DeclaredModel()
	}
	for _, m := range []ConsModel{Sequential, Processor, Release, Scope, Entry} {
		if m.String() == rt.sub.Caps().ConsistencyModel {
			return m
		}
	}
	panic("unknown capability model " + rt.sub.Caps().ConsistencyModel)
}

// A sequential requirement is not met by the default (scope) engine —
// a model needing it must not run under weaker semantics — but is by
// the ivy engine; weaker requirements are met by the default.
func TestRequireModel(t *testing.T) {
	native := func(engine string) ConsModel {
		rt, err := New(Config{Platform: platform.SWDSM, Nodes: 2, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		return nativeModel(rt)
	}
	// Models order strongest first.
	if m := native(""); m <= Sequential || m > Entry {
		t.Fatalf("the scope engine declares %v", m)
	}
	if m := native(consengine.IVYName); m > Sequential {
		t.Fatalf("the ivy engine declares %v", m)
	}
}

func TestRequireOnSMP(t *testing.T) {
	m := nativeModel(newRT(t, platform.SMP, 2))
	if m != Processor {
		t.Fatalf("SMP native = %v", m)
	}
	if m > Release || m <= Sequential {
		t.Fatal("SMP must meet release and not sequential requirements")
	}
}

func TestIVYEngineEndToEnd(t *testing.T) {
	rt, err := New(Config{Platform: platform.SWDSM, Nodes: 4, Engine: "ivy"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var r memsim.Region
	rt.Run(func(e *Env) {
		got, aerr := e.Mem.Alloc(4*memsim.PageSize, AllocOpts{Name: "v", Policy: memsim.Block, Collective: true})
		if aerr != nil {
			panic(aerr)
		}
		if e.ID() == 0 {
			r = got
		}
		// Each node writes its stripe, then everyone sums the lot.
		base := got.Base + memsim.Addr(e.ID())*memsim.PageSize
		for w := 0; w < 8; w++ {
			e.WriteF64(base+memsim.Addr(w*8), float64(e.ID()*8+w))
		}
		e.Sync.Barrier()
		var sum float64
		for p := 0; p < 4; p++ {
			for w := 0; w < 8; w++ {
				sum += e.ReadF64(got.Base + memsim.Addr(p)*memsim.PageSize + memsim.Addr(w*8))
			}
		}
		if sum != 496 { // 0+1+...+31
			panic("bad sum")
		}
	})
	if r.Size == 0 {
		t.Fatal("allocation did not happen")
	}
}
