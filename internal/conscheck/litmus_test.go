package conscheck

import (
	"strings"
	"testing"

	"hamster/internal/consengine"
	"hamster/internal/ivy"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

const litmusTrials = 6

func buildScope(nodes int) (consengine.Engine, error) {
	d, err := swdsm.New(swdsm.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildEagerRC(nodes int) (consengine.Engine, error) {
	d, err := swdsm.New(swdsm.Config{Nodes: nodes, Protocol: swdsm.EagerRC})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildIVY(nodes int) (consengine.Engine, error) {
	d, err := ivy.New(ivy.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func buildSMP(nodes int) (consengine.Engine, error) {
	s, err := smp.New(smp.Config{CPUs: nodes})
	if err != nil {
		return nil, err
	}
	return smpEngine{s}, nil
}

// smpEngine presents the SMP as an engine declaring the processor
// consistency of its capability string, so the battery can judge it.
type smpEngine struct{ platform.Substrate }

func (e smpEngine) DeclaredModel() consengine.Model { return consengine.Processor }

func checkBattery(t *testing.T, name string, build func(int) (consengine.Engine, error)) {
	t.Helper()
	verdicts, err := runBattery(build, litmusTrials)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(verdicts) != len(battery()) {
		t.Fatalf("%s: %d verdicts", name, len(verdicts))
	}
	for _, v := range verdicts {
		if !v.ok() {
			t.Errorf("%s: %s", name, v.String())
		}
		if len(v.Observed) == 0 {
			t.Errorf("%s: %s observed nothing", name, v.Test)
		}
	}
}

// TestLitmusDefaultEngine is the conformance gate scripts/check.sh runs
// under -race: the default scope engine must pass the whole battery.
func TestLitmusDefaultEngine(t *testing.T) {
	checkBattery(t, "scope", buildScope)
}

func TestLitmusEagerRC(t *testing.T) {
	checkBattery(t, "eager-rc", buildEagerRC)
}

// TestLitmusIVY checks the write-invalidate engine against its Sequential
// declaration — the strongest claim in the registry, so every relaxed
// outcome (store buffering, IRIW disagreement) is forbidden for it.
func TestLitmusIVY(t *testing.T) {
	checkBattery(t, "ivy", buildIVY)
}

func TestLitmusSMP(t *testing.T) {
	if raceEnabled {
		// The SMP substrate models hardware shared memory as direct
		// byte-slice access, so the deliberately racy litmus programs are
		// Go-level data races there (unlike the DSM engines, which
		// serialize internally). The unraced run still covers it.
		t.Skip("racy litmus programs race on the SMP substrate's backing memory")
	}
	checkBattery(t, "smp", buildSMP)
}

// TestLitmusCatchesBrokenEngine is the harness's negative control: an
// engine that drops its invalidations on release/barrier silently serves
// stale copies, and the barrier-publication test must convict it.
func TestLitmusCatchesBrokenEngine(t *testing.T) {
	broken := func(nodes int) (consengine.Engine, error) {
		d, err := swdsm.New(swdsm.Config{Nodes: nodes, DropInvalidations: true})
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	var pub litmus
	for _, l := range battery() {
		if l.Name == "barrier-publication" {
			pub = l
		}
	}
	if pub.Name == "" {
		t.Fatal("barrier-publication missing from the battery")
	}
	v, err := runLitmus(pub, broken, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.ok() {
		t.Fatalf("the broken engine must be convicted, got: %s", v.String())
	}
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "x=1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected stale x=1 observations, got: %s", v.String())
	}
}

// TestVerdictString covers the human-readable rendering both ways.
func TestVerdictString(t *testing.T) {
	v, err := runLitmus(storeBuffering(), buildScope, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := v.String()
	if !strings.Contains(s, "store-buffering") || !strings.Contains(s, "observed") {
		t.Fatalf("verdict rendering: %q", s)
	}
}
