package cluster

import (
	"reflect"
	"strings"
	"testing"

	"hamster/internal/core"
	"hamster/internal/machine"
	"hamster/internal/platform"
)

const sample = `
# the paper's testbed: four dual-Xeon nodes
platform  = software-dsm
messaging = coalesced
node = smile0 192.168.1.10
node = smile1 192.168.1.11
node = smile2 192.168.1.12
node = smile3 192.168.1.13
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Platform != platform.SWDSM || len(cfg.Nodes) != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Nodes[2].Name != "smile2" || cfg.Nodes[2].Address != "192.168.1.12" {
		t.Fatalf("node 2 = %+v", cfg.Nodes[2])
	}
	rc := cfg.RuntimeConfig()
	if rc.Nodes != 4 || rc.Platform != platform.SWDSM || rc.Messaging != machine.Coalesced || rc.Threaded {
		t.Fatalf("runtime config = %+v", rc)
	}
}

func TestParsePlatformAliases(t *testing.T) {
	for alias, want := range map[string]platform.Kind{
		"swdsm": platform.SWDSM, "beowulf": platform.SWDSM,
		"hybrid-dsm": platform.HybridDSM, "sci-vm": platform.HybridDSM, "numa": platform.HybridDSM,
		"smp": platform.SMP, "hardware-dsm": platform.SMP,
	} {
		cfg, err := Parse(strings.NewReader("platform = " + alias + "\nnode = a\n"))
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if cfg.Platform != want {
			t.Fatalf("%s -> %v, want %v", alias, cfg.Platform, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"platform = vax\nnode = a\n", "line 1"},
		{"messaging = smoke\nnode = a\n", "line 1"},
		{"nonsense line\n", "line 1"},
		{"unknownkey = 1\nnode = a\n", "line 1"},
		{"cache_pages = 2048\nnode = a\n", "line 1"}, // a key the format no longer has
		{"threaded = maybe\nnode = a\n", "line 1"},
		{"node = \n", "line 1"},
		{"platform = smp\n", "no node lines"},
		{"node = a 10.0.0.1 typo\n", "line 1: node line has 3 fields"},
		{"node = a\nnode = b 10.0.0.2 # rack 2\n", "line 2: node line has 5 fields"},
		{"platform = smp\nnode = a\nplatform = hybrid-dsm\n", "line 3: platform is already set on line 1"},
		{"messaging = separate\n# comment\nmessaging = separate\nnode = a\n", "line 3: messaging is already set on line 1"},
		{"threaded = true\nnode = a\nthreaded = false\n", "line 3: threaded is already set on line 1"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: error %v, want mention of %q", c.in, err, c.want)
		}
	}
}

// TestSurfaceEvidence is the cluster file's part of the surface-evidence
// matrix: the format has four keys, and a key earns its place by setting
// a core.Config field — the fields' own evidence is held by the test of
// the same name in internal/bench. A fifth key, or one that reaches no
// field, fails here.
func TestSurfaceEvidence(t *testing.T) {
	evidence := map[string]struct{ line, field string }{
		"platform":  {"platform = hybrid-dsm", "Platform"},
		"messaging": {"messaging = separate", "Messaging"},
		"threaded":  {"threaded = true", "Threaded"},
		"node":      {"node = n1", "Nodes"},
	}
	if len(keys) != 4 || len(evidence) != len(keys) {
		t.Errorf("the cluster file has %d keys and %d evidence entries, want 4 of each", len(keys), len(evidence))
	}
	for key := range keys {
		ev, ok := evidence[key]
		if !ok {
			t.Errorf("key %q has no evidence: name the core.Config field it sets, or delete it", key)
			continue
		}
		cfg, err := Parse(strings.NewReader(ev.line + "\nnode = n0\n"))
		if err != nil {
			t.Errorf("key %q: %v", key, err)
			continue
		}
		if v := reflect.ValueOf(cfg.RuntimeConfig()).FieldByName(ev.field); !v.IsValid() || v.IsZero() {
			t.Errorf("key %q: %q leaves Config.%s unset", key, ev.line, ev.field)
		}
	}
}

func TestConfigDrivesRuntime(t *testing.T) {
	// End to end: a config file boots a working runtime (§3.3 unified
	// startup).
	cfg, err := Parse(strings.NewReader("platform = smp\nnode = cpu0\nnode = cpu1\n"))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(cfg.RuntimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Nodes() != 2 || rt.Substrate().Kind() != platform.SMP {
		t.Fatal("runtime does not match config")
	}
}
