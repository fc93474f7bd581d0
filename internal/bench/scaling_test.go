package bench

// Scaling-campaign gates:
//
//   - TestTopologyFlatIdentity (run by name in scripts/check.sh): the
//     topology-aware fabric's flat preset must be bit-identical to the
//     pre-topology network on both measurement paths — the bare
//     substrate the engines campaign (BENCH_6) uses and the full core
//     services. On a plain build (how check.sh runs it) checksums,
//     virtual times, and message counts are bit-exact on the scope
//     engine: the topology layer must be invisible until a non-flat
//     preset is asked for. Under -race, virtual times relax to bandRace
//     — the race scheduler's pre-existing stolen-charge attribution
//     wobble (see race_off_test.go, TestEngineDefaultIdentity) moves
//     them by tens of microseconds for reasons unrelated to topology. The ivy engine
//     pins checksums only: its probable-owner chain lengths depend on
//     request arrival order under contention (see DESIGN §5f), so
//     virtual time and message counts differ between any two runs,
//     topology or not.
//   - TestHierSyncKernels64 / TestHierSyncFaults64 (run under -race by
//     scripts/check.sh): above hsync.Threshold the substrates switch to
//     tree barriers and distributed lock queues; kernels at 64 nodes
//     must still produce the scope/flat reference checksum on every
//     engine and topology, including under a seeded lossy-ethernet
//     fault campaign with retransmissions.

import (
	"strings"
	"testing"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/consengine"
	"hamster/internal/simnet"
	"hamster/models/jiajia"
)

// flatBand is the flat-identity pin on virtual time: bit-exact on a
// plain build, bandRace under -race.
func flatBand() float64 {
	if raceEnabled {
		return bandRace
	}
	return 0
}

func TestTopologyFlatIdentity(t *testing.T) {
	// Bare-substrate path (the BENCH_6 measurement path): default
	// construction (zero Topology) vs the explicit flat preset, for both
	// page-protocol families.
	for _, eng := range []string{consengine.ScopeName, consengine.IVYName} {
		for _, c := range engineKernels() {
			def := measureKernel(t, c.Kernel, Cluster{Platform: eng, Nodes: 4})
			flat := measureKernel(t, c.Kernel, Cluster{Platform: eng, Nodes: 4, Topology: simnet.TopoFlat})
			if def.Check != flat.Check {
				t.Errorf("%s/%s: default != explicit flat: check %v/%v",
					eng, c.Name, def.Check, flat.Check)
			}
			// Message counts and virtual times are pinned on scope only:
			// ivy's forwarding-chain lengths are schedule-dependent, so
			// two runs of the *same* configuration already differ there.
			if eng == consengine.ScopeName {
				if def.Msgs != flat.Msgs {
					t.Errorf("%s/%s: default != explicit flat: msgs %d/%d",
						eng, c.Name, def.Msgs, flat.Msgs)
				}
				if !virtualWithin(flat.VirtualNs, def.VirtualNs, flatBand()) {
					t.Errorf("%s/%s: default != explicit flat: virtual %v/%v",
						eng, c.Name, def.VirtualNs, flat.VirtualNs)
				}
			}
		}
	}

	// Core-services path: a
	// Config with no Topology vs Topology "flat" must boot the identical
	// cluster: checksums bit-exact, virtual time under the same
	// plain-exact / race-tolerant pin (the full core path carries the
	// same scheduling-order wobble under -race; see
	// TestCrashRecoveryKernels).
	kernel := smallAggKernels()[0].Kernel
	run := func(topology string) (hamster.Duration, float64) {
		sys, err := jiajia.Boot(hamster.Config{Platform: hamster.SWDSM, Nodes: 4, Topology: topology})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		res := apps.RunOnJia(sys, kernel)
		return apps.MaxTotal(res), res[0].Check
	}
	defVirt, defCheck := run("")
	flatVirt, flatCheck := run(simnet.TopoFlat)
	if defCheck != flatCheck {
		t.Errorf("core path: default != explicit flat: check %v/%v", defCheck, flatCheck)
	}
	if !virtualWithin(uint64(flatVirt), uint64(defVirt), flatBand()) {
		t.Errorf("core path: default != explicit flat: virtual %v/%v", defVirt, flatVirt)
	}
}

// hierKernel is small enough to run at 64 nodes under -race but still
// crosses pages on every node (sor over a 256x256 grid, two sweeps).
func hierKernel(m apps.Machine) apps.Result { return apps.SOR(m, 256, 2, true) }

func TestHierSyncKernels64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node kernels on every engine and topology")
	}
	// The scope/flat cell is the reference; every other (engine,
	// topology) pair must agree bit-for-bit on the checksum even though
	// tree barriers and distributed lock queues re-route every
	// synchronization step.
	want := measureKernel(t, hierKernel, Cluster{Platform: consengine.ScopeName, Nodes: 64, Topology: simnet.TopoFlat}).Check
	for _, eng := range []string{consengine.ScopeName, consengine.IVYName} {
		for _, topo := range simnet.TopologyNames() {
			r := measureKernel(t, hierKernel, Cluster{Platform: eng, Nodes: 64, Topology: topo})
			if r.Check != want {
				t.Errorf("%s@%s: checksum %v, want %v", eng, topo, r.Check, want)
			}
			if r.VirtualNs == 0 {
				t.Errorf("%s@%s: zero virtual time", eng, topo)
			}
		}
	}
}

func TestHierSyncFaults64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node fault campaign")
	}
	// Hierarchical synchronization must survive a lossy wire: same
	// checksum with 1% of messages dropped and retransmitted as with a
	// clean network. The fault plan only names nodes 0 and 1, so it is
	// cluster-size independent.
	run := func(faults string) float64 {
		sys, err := jiajia.Boot(hamster.Config{Platform: hamster.SWDSM, Nodes: 64, Topology: simnet.TopoRack})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		if faults != "" {
			plan, err := simnet.FaultProfile(faults, 7)
			if err != nil {
				t.Fatal(err)
			}
			sys.Runtime().SetFaults(plan)
		}
		res := apps.RunOnJia(sys, hierKernel)
		return res[0].Check
	}
	clean := run("")
	lossy := run("lossy-ethernet")
	if clean != lossy {
		t.Errorf("lossy-ethernet moved the checksum: %v vs clean %v", lossy, clean)
	}
}

// TestScalingReplay runs the scaling campaign — Run fails it if an
// engine or a fabric moves a checksum within a (kernel, mode, nodes)
// group — and replays the committed BENCH_7.json checksum for checksum.
// The crossover footer must account for every (kernel, mode, topology)
// series.
func TestScalingReplay(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Minutes under the race detector, which TestHierSyncKernels64 and
		// TestPNodesScaling256Identity already take to 64 and 256 nodes.
		t.Skip("96-cell campaign up to 256 nodes")
	}
	c := mustLookup(t, "scaling")
	rep := mustRun(t, c, 0)
	replayArtifact(t, "BENCH_7.json", rep)
	footer := c.Footer(rep.Rows)
	if got, want := strings.Count(footer, "\n"), 1+len(scalingKernels())*len(scalingTopologies); got != want {
		t.Fatalf("crossover footer has %d lines, want %d:\n%s", got, want, footer)
	}
}
