package bench

import (
	"strings"
	"testing"

	"hamster/internal/consengine"
)

// TestEngineDefaultIdentity is the default-engine identity gate:
// selecting no engine must run the exact pre-engine-interface protocol.
// Two checks pin this:
//
//   - A default-constructed cluster and an explicit "scope" selection
//     must produce bit-identical virtual time, checksum, and message
//     count on the same kernel.
//   - The committed BENCH_6.json scope rows must replay with checksums
//     and counters bit-exact and virtual times within bandBaseline (see
//     artifactPins for why only the scope rows).
func TestEngineDefaultIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel replays against the committed baseline")
	}
	for _, c := range smallAggKernels() {
		def := measureKernel(t, c.Kernel, Cluster{Nodes: 4})
		scope := measureKernel(t, c.Kernel, Cluster{Platform: consengine.ScopeName, Nodes: 4})
		if def.Check != scope.Check || def.VirtualNs != scope.VirtualNs || def.Msgs != scope.Msgs {
			t.Errorf("%s: default engine != explicit scope: check %v/%v virtual %v/%v msgs %d/%d",
				c.Name, def.Check, scope.Check, def.VirtualNs, scope.VirtualNs, def.Msgs, scope.Msgs)
		}
	}
	replayArtifact(t, "BENCH_6.json", nil)
}

// TestEngineSuiteAgreement runs the whole engine matrix and checks its
// invariants: every (kernel, nodes) cell computes the same checksum on
// every engine (Run enforces this and would error), each engine carries
// its declared model, and the write-invalidate engine actually exercised
// its protocol (ownership transfers or invalidations happened).
func TestEngineSuiteAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine matrix")
	}
	c := mustLookup(t, "engines")
	rep := mustRun(t, c, 0)
	want := len(consengine.Names()) * len(engineKernels()) * 2
	if len(rep.Rows) != want {
		t.Fatalf("suite rows = %d, want %d", len(rep.Rows), want)
	}
	models := map[string]string{
		consengine.ScopeName:   "scope",
		consengine.EagerRCName: "release",
		consengine.IVYName:     "sequential",
	}
	var ivyProtocol uint64
	for _, r := range rep.Rows {
		if r.Model != models[r.Platform] {
			t.Errorf("%s declares %q, want %q", r.ID(), r.Model, models[r.Platform])
		}
		if r.VirtualNs == 0 || r.Msgs == 0 {
			t.Errorf("%s measured nothing: virtual %d msgs %d", r.ID(), r.VirtualNs, r.Msgs)
		}
		if r.Platform == consengine.IVYName {
			ivyProtocol += r.Invalidations + r.Migrations
		}
	}
	if ivyProtocol == 0 {
		t.Error("ivy rows show no invalidations or ownership transfers")
	}
	table := Render(c, rep)
	if !strings.Contains(table, "ivy") || !strings.Contains(table, "sequential") {
		t.Fatalf("rendering: %q", table)
	}
}

// TestBuildEngineUnknown: the bench builder reports the valid selector
// list, same as core.Config.Engine.
func TestBuildEngineUnknown(t *testing.T) {
	if _, err := (Cluster{Platform: "tso", Nodes: 2}).Build(); err == nil || !strings.Contains(err.Error(), "scope, eager-rc, ivy") {
		t.Fatalf("err = %v", err)
	}
}
