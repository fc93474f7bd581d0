package core

import (
	"strings"
	"testing"

	"hamster/internal/machine"
	"hamster/internal/platform"
	"hamster/internal/swdsm"
)

// TestConfigMatrix is the feature × engine table: every cell either boots,
// crosses two barriers (so a checkpoint is captured where one is
// configured) and closes, or Validate — alone, with no constructor run —
// rejects it with an error that names the offending field and gives a
// reason about the platform or protocol. New returns that same error.
func TestConfigMatrix(t *testing.T) {
	engines := []struct {
		name string
		cfg  Config
	}{
		{"smp", Config{Platform: platform.SMP}},
		{"hybrid", Config{Platform: platform.HybridDSM}},
		{"scope", Config{Platform: platform.SWDSM, Engine: "scope"}},
		{"eager-rc", Config{Platform: platform.SWDSM, Engine: "eager-rc"}},
		{"ivy", Config{Platform: platform.SWDSM, Engine: "ivy"}},
	}
	features := []struct {
		name string
		set  func(*Config)
	}{
		{"checkpoint", func(c *Config) { c.CheckpointEvery = 2 }},
		{"incremental", func(c *Config) { c.CheckpointEvery, c.CheckpointIncremental = 2, true }},
		{"aggregation", func(c *Config) { c.SWDSMAggregation = swdsm.Aggregation{Batch: true} }},
		{"prefetch", func(c *Config) { c.SWDSMAggregation = swdsm.Aggregation{Batch: true, Prefetch: true} }},
		{"rack", func(c *Config) { c.Topology = "rack" }},
		{"separate", func(c *Config) { c.Messaging = machine.Separate }},
		{"threaded", func(c *Config) { c.Threaded = true }},
		{"threaded+pnodes", func(c *Config) { c.Threaded, c.ParallelNodes = true, true }},
	}
	// rejected[engine][feature] = the field the error names, the reason it
	// gives. Every other cell works.
	type why struct{ field, reason string }
	hardware := map[string]why{
		"checkpoint":  {"Config.CheckpointEvery", "no page-granular capture surface"},
		"incremental": {"Config.CheckpointEvery", "no page-granular capture surface"},
		"aggregation": {"Config.SWDSMAggregation", "coherent in hardware"},
		"prefetch":    {"Config.SWDSMAggregation", "coherent in hardware"},
		"rack":        {"Config.Topology", "no switch fabric"},
	}
	rejected := map[string]map[string]why{
		"smp": hardware, "hybrid": hardware, "scope": {}, "eager-rc": {},
		"ivy": {
			"checkpoint":  {"Config.CheckpointEvery", "ownership and copysets instead of home frames"},
			"incremental": {"Config.CheckpointEvery", "ownership and copysets instead of home frames"},
			"aggregation": {"Config.SWDSMAggregation", "sends neither diffs nor notices"},
			"prefetch":    {"Config.SWDSMAggregation", "sends neither diffs nor notices"},
		},
	}
	for _, e := range engines {
		for _, f := range features {
			t.Run(e.name+"/"+f.name, func(t *testing.T) {
				cfg := e.cfg
				cfg.Nodes = 2
				f.set(&cfg)
				want, reject := rejected[e.name][f.name]
				if f.name == "threaded+pnodes" {
					want, reject = why{"Config.ParallelNodes", "blocked-receiver horizon bound"}, true
				}
				verr := cfg.Validate()
				rt, err := New(cfg)
				if !reject {
					if verr != nil || err != nil {
						t.Fatalf("Validate: %v, New: %v; want a working cluster", verr, err)
					}
					rt.Run(func(e *Env) {
						e.Sync.Barrier()
						e.Sync.Barrier()
					})
					if ck := rt.Checkpoints(); (ck != nil) != (cfg.CheckpointEvery > 0) {
						t.Errorf("checkpoint coordinator attached: %v", ck != nil)
					} else if ck != nil {
						if n, _ := ck.Stats(); n != 1 {
							t.Errorf("%d snapshots after two barriers at every 2, want 1", n)
						}
					}
					rt.Close()
					return
				}
				if verr == nil || !strings.Contains(verr.Error(), want.field) || !strings.Contains(verr.Error(), want.reason) {
					t.Fatalf("Validate: %v; want an error naming %s and %q", verr, want.field, want.reason)
				}
				if err == nil || err.Error() != verr.Error() {
					t.Fatalf("New: %v; want Validate's error", err)
				}
			})
		}
	}
}
