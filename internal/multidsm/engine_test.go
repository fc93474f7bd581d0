package multidsm

import (
	"strings"
	"testing"

	"hamster/internal/consengine"
	"hamster/internal/memsim"
	"hamster/internal/swdsm"
)

func TestPageEngineSelection(t *testing.T) {
	for _, tc := range []struct {
		engine string
		want   consengine.Model
	}{
		{"", consengine.Scope},
		{"eager-rc", consengine.Release},
		{"ivy", consengine.Sequential},
	} {
		d, err := New(Config{Nodes: 2, PageEngine: tc.engine})
		if err != nil {
			t.Fatalf("PageEngine %q: %v", tc.engine, err)
		}
		// All-SW routing: the page engine's model governs.
		if got := d.DeclaredModel(); got != tc.want {
			t.Fatalf("PageEngine %q: declared %v, want %v", tc.engine, got, tc.want)
		}
		d.Close()
	}
}

func TestPageEngineMixedRoutingRelaxes(t *testing.T) {
	d, err := New(Config{Nodes: 2, PageEngine: "ivy",
		PolicyRoutes: map[memsim.Policy]Engine{memsim.Cyclic: Hybrid}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A hybrid route relaxes the sequentially-consistent page engine's
	// composition down to the sync layer's Release.
	if got := d.DeclaredModel(); got != consengine.Release {
		t.Fatalf("declared %v, want Release", got)
	}
	if !strings.Contains(d.EngineName(), "ivy") {
		t.Fatalf("EngineName %q must name the page engine", d.EngineName())
	}
}

func TestPageEngineValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 2, PageEngine: "tso"}); err == nil {
		t.Fatal("unknown page engine must fail")
	}
	_, err := New(Config{Nodes: 2, PageEngine: "ivy",
		Aggregation: swdsm.Aggregation{Batch: true}})
	if err == nil || !strings.Contains(err.Error(), "aggregation") {
		t.Fatalf("ivy+aggregation must fail descriptively, got %v", err)
	}
}

func TestIVYPageEngineComposition(t *testing.T) {
	d, err := New(Config{Nodes: 2, PageEngine: "ivy",
		PolicyRoutes: map[memsim.Policy]Engine{memsim.Cyclic: Hybrid}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pageR, err := d.Alloc(memsim.PageSize, "page", memsim.Block, -1)
	if err != nil {
		t.Fatal(err)
	}
	wordR, err := d.Alloc(memsim.PageSize, "word", memsim.Cyclic, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d.routeOf(pageR.Base) != SW || d.routeOf(wordR.Base) != Hybrid {
		t.Fatal("routing wrong")
	}
	// IVY region: coherent immediately, no sync needed.
	d.WriteF64(0, pageR.Base, 4.5)
	if got := d.ReadF64(1, pageR.Base); got != 4.5 {
		t.Fatalf("ivy region read = %v", got)
	}
	// Hybrid region through the unified sync layer.
	lk := d.NewLock()
	d.Acquire(0, lk)
	d.WriteF64(0, wordR.Base, 1.5)
	d.Release(0, lk)
	d.Acquire(1, lk)
	if got := d.ReadF64(1, wordR.Base); got != 1.5 {
		t.Fatalf("hybrid region read = %v", got)
	}
	d.Release(1, lk)
}
