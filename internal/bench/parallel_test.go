package bench

import (
	"bytes"
	"math"
	"testing"

	"hamster/internal/simnet"
)

// TestParallelRunnerByteIdentity pins the campaign runner's contract:
// running independent cells concurrently must reproduce the sequential
// run. Each cell owns a private simulated cluster and results merge in
// cell order, so every discrete field — labels, checksums, protocol
// message counts, batch and prefetch statistics, fault-campaign
// retransmissions — must be exactly equal, and the final JSON
// byte-identical, once the one class of legitimately run-to-run-varying
// readings is normalized: virtual times, their per-category
// attribution and the phase maxima, which carry the ±15µs stolen-charge
// scheduling wobble (see bandBaseline) even between two sequential runs.
// Virtual times must agree within the band; the attribution is bounded on
// the fault campaign only and the phase maxima not at all (the wobble
// moves which node waits longest at a barrier). All three are then
// copied from the sequential row before the byte comparison. Rows carry no host-time readings, so there is
// nothing else to normalize.
//
// The seeded 5%-drop campaign is the sharpest probe: its per-link draw
// streams are positional, so any cross-cell state leak in the parallel
// runner would change retry counts and checksums instantly — and those
// are compared exactly.
func TestParallelRunnerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full aggregation matrix and fault campaign")
	}
	for _, tc := range []struct {
		c Campaign
		// breakdownNs bounds how far a category of the attribution may
		// stray: the wobble shifts whole stolen charges between nodes and
		// categories, so the bound is absolute, well above ±15µs per
		// shift. Pinned on the 4-node fault campaign only; 0 = unpinned.
		breakdownNs float64
	}{
		{c: mustLookup(t, "aggregation")},
		{c: mustLookup(t, "kernels").WithFaults(simnet.FaultPlan{DropProb: 0.05, Seed: 3}), breakdownNs: 200_000},
	} {
		c := tc.c
		seq, par := mustRun(t, c, 1), mustRun(t, c, 4)
		if len(seq.Rows) != len(par.Rows) {
			t.Fatalf("%s: %d cells sequential, %d parallel", c.Name, len(seq.Rows), len(par.Rows))
		}
		for i := range seq.Rows {
			for s, p := &seq.Rows[i], &par.Rows[i]; s != nil; s, p = s.Baseline, p.Baseline {
				if !virtualWithin(p.VirtualNs, s.VirtualNs, bandBaseline) {
					t.Errorf("%s: %s: parallel virtual %d strays beyond %.1f%% from sequential %d",
						c.Name, s.id(), p.VirtualNs, 100*bandBaseline, s.VirtualNs)
				}
				for cat, sv := range s.BreakdownNs {
					if pv := p.BreakdownNs[cat]; tc.breakdownNs > 0 && math.Abs(float64(pv)-float64(sv)) > tc.breakdownNs {
						t.Errorf("%s: %s: parallel %s breakdown %d strays from sequential %d", c.Name, s.id(), cat, pv, sv)
					}
				}
				p.VirtualNs, p.BreakdownNs = s.VirtualNs, s.BreakdownNs
				p.InitNs, p.AfterInitNs, p.CoreNs, p.BarNs = s.InitNs, s.AfterInitNs, s.CoreNs, s.BarNs
			}
		}
		if s, p := marshal(t, seq), marshal(t, par); !bytes.Equal(s, p) {
			t.Errorf("%s: -parallel 4 JSON differs from -parallel 1 beyond virtual-time normalization:\nsequential:\n%s\nparallel:\n%s", c.Name, s, p)
		}
	}
}
