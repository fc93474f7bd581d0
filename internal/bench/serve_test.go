package bench

import (
	"bytes"
	"testing"
)

// TestServeParallelByteIdentity pins the serve campaign's sharpest
// contract: its rows are pure functions of seed and configuration, so
// the cell-parallel run must be byte-identical to the sequential one
// with NO normalization at all — latency quantiles, throughputs, session
// counts, stall counts, recovery counts, and checksums exactly equal.
// The committed BENCH_8.json must replay the same way.
func TestServeParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full serve campaign, twice")
	}
	c := mustLookup(t, "serve")
	seq, par := mustRun(t, c, 1), mustRun(t, c, 4)
	if s, p := marshal(t, seq), marshal(t, par); !bytes.Equal(s, p) {
		t.Fatalf("serve campaign: -parallel 4 JSON differs from -parallel 1 with zero normalization:\nsequential:\n%s\nparallel:\n%s", s, p)
	}
	replayArtifact(t, "BENCH_8.json", seq)
}

// The serve campaign must include its two acceptance anchors: a cell
// multiplexing at least a million client sessions, and a faulted cell
// recovered through the cluster orchestrator.
func TestServeSuiteAnchors(t *testing.T) {
	var headline, faulted bool
	for _, c := range mustLookup(t, "serve").Cells {
		if c.Serve.Sessions >= 1_000_000 {
			headline = true
		}
		if c.labels(c.Cluster).Faulted {
			faulted = true
		}
	}
	if !headline {
		t.Fatal("no campaign cell reaches a 1M client-session population")
	}
	if !faulted {
		t.Fatal("no campaign cell runs the mid-traffic crash-recovery scenario")
	}
}
