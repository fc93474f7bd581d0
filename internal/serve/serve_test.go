package serve_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hamster"
	"hamster/internal/checkpoint"
	"hamster/internal/consengine"
	"hamster/internal/core"
	"hamster/internal/hybriddsm"
	"hamster/internal/platform"
	"hamster/internal/serve"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// substrates builds one of every bare substrate plus one bare cluster
// per consistency engine, all with n nodes. Callers own Close.
func substrates(t testing.TB, n int) map[string]platform.Substrate {
	t.Helper()
	sm, err := smp.New(smp.Config{CPUs: n})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := swdsm.New(swdsm.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybriddsm.New(hybriddsm.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]platform.Substrate{"smp": sm, "swdsm": sw, "hybrid": hy}
	for _, e := range []string{consengine.ScopeName, consengine.EagerRCName, consengine.IVYName} {
		d, err := core.NewSubstrate(hamster.Config{Platform: hamster.SWDSM, Engine: e, Nodes: n, Topology: simnet.TopoFlat})
		if err != nil {
			t.Fatal(err)
		}
		out["engine-"+e] = d
	}
	t.Cleanup(func() {
		for _, s := range out {
			s.Close()
		}
	})
	return out
}

func TestServeValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  serve.Config
		n    int
		want string
	}{
		{"unknown workload", serve.Config{Workload: "webscale"}, 4, "unknown workload"},
		{"one node", serve.Config{Workload: serve.WorkloadKV}, 1, "at least 2 nodes"},
		{"more nodes than latches", serve.Config{Workload: serve.WorkloadKV}, 65, "lock table"},
		{"negative skew", serve.Config{Workload: serve.WorkloadKV, ZipfSkew: -1}, 4, "ZipfSkew"},
		{"bad gap", serve.Config{Workload: serve.WorkloadKV, MeanGapNs: -3}, 4, "MeanGapNs"},
		{"NaN skew", serve.Config{Workload: serve.WorkloadKV, ZipfSkew: math.NaN()}, 4, "ZipfSkew"},
		{"infinite skew", serve.Config{Workload: serve.WorkloadKV, ZipfSkew: math.Inf(1)}, 4, "ZipfSkew"},
		{"NaN gap", serve.Config{Workload: serve.WorkloadKV, MeanGapNs: math.NaN()}, 4, "MeanGapNs"},
		{"infinite gap", serve.Config{Workload: serve.WorkloadKV, MeanGapNs: math.Inf(1)}, 4, "MeanGapNs"},
		{"horizon overflows", serve.Config{Workload: serve.WorkloadKV, Windows: 1 << 20, WindowNs: 1 << 44}, 4, "overflows"},
	}
	for _, c := range cases {
		cfg := c.cfg.WithDefaults(c.n)
		if c.cfg.MeanGapNs != 0 {
			cfg.MeanGapNs = c.cfg.MeanGapNs
		}
		err := cfg.Validate(c.n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// Two runs of the same seeded config must agree on every reported
// field — histograms, digests, per-shard counters, checksums.
func TestServeDeterministicReplay(t *testing.T) {
	for _, w := range []string{serve.WorkloadKV, serve.WorkloadPipeline, serve.WorkloadSyncLog} {
		run := func() *serve.Report {
			sm, err := smp.New(smp.Config{CPUs: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer sm.Close()
			rep, err := serve.RunOnSubstrate(serve.Config{
				Workload: w, Seed: 11, Windows: 8, Sessions: 20_000, ZipfSkew: 0.99,
			}, sm)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two identically seeded runs disagree", w)
		}
		if a.Applied == 0 || a.Sessions == 0 {
			t.Fatalf("%s: run did nothing (applied %d, sessions %d)", w, a.Applied, a.Sessions)
		}
	}
}

// The conformance gate (wired into scripts/check.sh under -race): the
// same seeded workload must produce the identical checksum on every
// substrate and every consistency engine, for each workload.
func TestServeEngineConformance(t *testing.T) {
	type mode struct {
		name string
		cfg  serve.Config
	}
	modes := []mode{
		{"kv-routed", serve.Config{Workload: serve.WorkloadKV, Seed: 7, Windows: 6, Sessions: 5000, ZipfSkew: 0.99}},
		{"pipeline-routed", serve.Config{Workload: serve.WorkloadPipeline, Seed: 7, Windows: 6, Sessions: 5000}},
		{"synclog-routed", serve.Config{Workload: serve.WorkloadSyncLog, Seed: 7, Windows: 6, Sessions: 5000}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var refName string
			var ref *serve.Report
			for name, sub := range substrates(t, 4) {
				rep, err := serve.RunOnSubstrate(m.cfg, sub)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ref == nil {
					refName, ref = name, rep
					continue
				}
				if rep.Checksum != ref.Checksum || rep.Applied != ref.Applied {
					t.Fatalf("%s: checksum %#x / applied %d diverge from %s's %#x / %d",
						name, rep.Checksum, rep.Applied, refName, ref.Checksum, ref.Applied)
				}
				// The measured apply phase is communication-free, so the
				// latency distribution is substrate-invariant too.
				if rep.P50Ns != ref.P50Ns || rep.P99Ns != ref.P99Ns {
					t.Fatalf("%s: latency quantiles %d/%d diverge from %s's %d/%d",
						name, rep.P50Ns, rep.P99Ns, refName, ref.P50Ns, ref.P99Ns)
				}
			}
		})
	}
}

// Hot traffic must fill the rings and exert real backpressure: stall
// events, with every routed op still applied (buildReport checks that).
func TestServeBackpressure(t *testing.T) {
	sm, err := smp.New(smp.Config{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	rep, err := serve.RunOnSubstrate(serve.Config{
		Workload: serve.WorkloadKV, Seed: 3, Windows: 8, Sessions: 10_000, ZipfSkew: 1.2,
		MeanGapNs: 800,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled == 0 {
		t.Fatal("256-slot rings under 1.2-skew hot traffic produced no stall events")
	}
}

// A planned mid-traffic crash with a lossy network, recovered through
// the cluster orchestrator, must land on the fault-free checksum; the
// whole crash-and-recover history must replay bit-identically.
func TestServeRecoverable(t *testing.T) {
	cfg := serve.Config{Workload: serve.WorkloadKV, Seed: 7, Windows: 6, Sessions: 5000, ZipfSkew: 0.99}
	base := hamster.Config{Platform: platform.SWDSM, Nodes: 4}

	rt, err := hamster.New(base)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := serve.RunOnRuntime(cfg, rt)
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}

	recCfg := base
	recCfg.CheckpointEvery = 4
	recCfg.CheckpointSink = checkpoint.NewMemorySink(64)
	plan := simnet.FaultPlan{
		NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: 1_500_000}},
		DropProb:   0.05,
		Recover:    true,
		Seed:       3,
	}
	rec, recs, err := serve.RunRecoverable(cfg, recCfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if recs < 1 {
		t.Fatal("planned crash needed no recovery")
	}
	if rec.Checksum != clean.Checksum || rec.Applied != clean.Applied {
		t.Fatalf("recovered run diverged: %#x/%d, want %#x/%d",
			rec.Checksum, rec.Applied, clean.Checksum, clean.Applied)
	}

	repCfg := base
	repCfg.CheckpointEvery = 4
	repCfg.CheckpointSink = checkpoint.NewMemorySink(64)
	rep, repRecs, err := serve.RunRecoverable(cfg, repCfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if repRecs != recs || rep.Checksum != rec.Checksum || rep.Applied != rec.Applied {
		t.Fatalf("recovery replay diverged: recoveries %d vs %d, %#x/%d vs %#x/%d",
			repRecs, recs, rep.Checksum, rep.Applied, rec.Checksum, rec.Applied)
	}
}

// Through the core services the monitor report grows the serve section:
// hot shards with their backing pages and the latch-contention row.
func TestServeMonitorSections(t *testing.T) {
	rt, err := hamster.New(hamster.Config{Platform: platform.SWDSM, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := serve.RunOnRuntime(serve.Config{
		Workload: serve.WorkloadKV, Seed: 7, Windows: 6, Sessions: 5000, ZipfSkew: 0.99,
	}, rt); err != nil {
		t.Fatal(err)
	}
	rep := rt.Env(0).Mon.Report()
	for _, want := range []string{"serve: kv workload", "hot shard", "lock contention", "latency p50/p95/p99"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("monitor report missing %q:\n%s", want, rep)
		}
	}
}

// Session multiplexing: a session population far beyond the op count
// still reports distinct-touched sessions bounded by both.
func TestServeSessionAccounting(t *testing.T) {
	sm, err := smp.New(smp.Config{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	rep, err := serve.RunOnSubstrate(serve.Config{
		Workload: serve.WorkloadKV, Seed: 5, Windows: 6, Sessions: 1_000_000,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions == 0 || rep.Sessions > rep.Applied || rep.Sessions > 1_000_000 {
		t.Fatalf("distinct sessions %d out of range (applied %d)", rep.Sessions, rep.Applied)
	}
}
