package consengine_test

import (
	"strings"
	"testing"

	"hamster/internal/consengine"
)

func TestModelOrderAndNames(t *testing.T) {
	order := []consengine.Model{consengine.Sequential, consengine.Processor,
		consengine.Release, consengine.Scope, consengine.Entry}
	names := []string{"sequential", "processor", "release", "scope", "entry"}
	for i, m := range order {
		if m.String() != names[i] {
			t.Errorf("%d: String() = %q, want %q", i, m.String(), names[i])
		}
		if i > 0 && order[i-1] >= m {
			t.Errorf("%v does not order after %v: models order strongest first", m, order[i-1])
		}
	}
	if consengine.Model(99).String() != "model(99)" {
		t.Fatalf("out-of-range String() = %q", consengine.Model(99).String())
	}
}

func TestNormalizeName(t *testing.T) {
	if n, err := consengine.NormalizeName(""); err != nil || n != consengine.ScopeName {
		t.Fatalf("empty selector: %q, %v", n, err)
	}
	for _, n := range consengine.Names() {
		if got, err := consengine.NormalizeName(n); err != nil || got != n {
			t.Fatalf("NormalizeName(%q) = %q, %v", n, got, err)
		}
	}
	if _, err := consengine.NormalizeName("tso"); err == nil || !strings.Contains(err.Error(), "scope, eager-rc, ivy") {
		t.Fatalf("unknown selector err = %v", err)
	}
}
