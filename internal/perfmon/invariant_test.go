package perfmon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hamster/internal/apps"
	"hamster/internal/hybriddsm"
	"hamster/internal/multidsm"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// The attribution invariant: after a quiescent run, every node's
// per-category totals sum to its final virtual time EXACTLY — not
// approximately. Every clock advance in every substrate must be tagged,
// and tagging must never change the charge.
func TestAttributionInvariantAllSubstrates(t *testing.T) {
	const nodes = 4
	kernel := func(m apps.Machine) apps.Result { return apps.SOR(m, 64, 4, false) }

	subs := []struct {
		name  string
		build func() (platform.Substrate, error)
	}{
		{"smp", func() (platform.Substrate, error) {
			return smp.New(smp.Config{CPUs: nodes})
		}},
		{"swdsm", func() (platform.Substrate, error) {
			return swdsm.New(swdsm.Config{Nodes: nodes})
		}},
		{"hybriddsm", func() (platform.Substrate, error) {
			return hybriddsm.New(hybriddsm.Config{Nodes: nodes})
		}},
		{"multidsm", func() (platform.Substrate, error) {
			return multidsm.New(multidsm.Config{Nodes: nodes})
		}},
	}
	for _, tc := range subs {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			// Recording on or off must not matter; run with it on to
			// exercise the instrumented paths too.
			rec := perfmon.New(nodes, 0)
			sub.SetRecorder(rec)
			rec.Enable()
			apps.RunOnSubstrate(sub, kernel)
			for n := 0; n < nodes; n++ {
				clk := sub.Clock(n)
				bd := clk.Breakdown()
				if got, want := bd.Total(), vclock.Duration(clk.Now()); got != want {
					t.Errorf("node %d: breakdown sums to %d, clock is %d (diff %d): %+v",
						n, got, want, int64(want)-int64(got), bd)
				}
				if clk.Now() == 0 {
					t.Errorf("node %d: clock never advanced", n)
				}
			}
		})
	}
}

// The protocol life cycle of a migratory write on the software DSM must
// appear in order on a node's event stream: the page faults in, the first
// write twins it, the release diffs it, the write notice publishes it,
// and the barrier closes the interval.
func TestGoldenEventSequenceSWDSM(t *testing.T) {
	d, err := swdsm.New(swdsm.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := perfmon.New(2, 0)
	d.SetRecorder(rec)
	rec.Enable()

	// A 100-wide grid makes rows straddle page boundaries, so the rows at
	// the block split live on pages written by BOTH nodes: the non-home
	// writer must fault, twin, diff, and notice.
	res := apps.RunOnSubstrate(d, func(m apps.Machine) apps.Result {
		return apps.SOR(m, 100, 4, false)
	})
	_ = res

	want := []perfmon.EventKind{
		perfmon.EvPageFault, perfmon.EvTwinCreate, perfmon.EvDiffCreate,
		perfmon.EvWriteNotice, perfmon.EvBarrier,
	}
	found := false
	for n := 0; n < 2 && !found; n++ {
		i := 0
		for _, ev := range rec.AllEvents() {
			if int(ev.Node) == n && i < len(want) && ev.Kind == want[i] {
				i++
			}
		}
		found = i == len(want)
	}
	if !found {
		var b strings.Builder
		for n := 0; n < 2; n++ {
			fmt.Fprintf(&b, "node %d:", n)
			for k, c := range rec.KindCount(n) {
				fmt.Fprintf(&b, " %v=%d", k, c)
			}
			b.WriteString("\n")
		}
		t.Fatalf("no node's stream contains the ordered subsequence %v\n%s", want, b.String())
	}
}

// A trace exported from a real 4-node run must parse back as structurally
// valid Chrome trace JSON: one named track per node, slices only on valid
// pids, and globally scoped barrier-epoch markers present.
func TestChromeTraceRoundTripSWDSM(t *testing.T) {
	const nodes = 4
	d, err := swdsm.New(swdsm.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := perfmon.New(nodes, 0)
	d.SetRecorder(rec)
	rec.Enable()
	apps.RunOnSubstrate(d, func(m apps.Machine) apps.Result {
		return apps.SOR(m, 100, 4, false)
	})
	rec.Disable()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	tracks := make(map[int]string)
	barrierMarkers := 0
	slices := 0
	for _, ev := range trace.TraceEvents {
		if ev.PID < 0 || ev.PID >= nodes {
			t.Fatalf("event %q on invalid pid %d", ev.Name, ev.PID)
		}
		switch ev.Phase {
		case "M":
			if ev.Name == "process_name" {
				tracks[ev.PID], _ = ev.Args["name"].(string)
			}
		case "X":
			slices++
		case "i":
			if strings.HasPrefix(ev.Name, "barrier-epoch-") {
				if ev.Scope != "g" {
					t.Fatalf("barrier marker %q not globally scoped", ev.Name)
				}
				barrierMarkers++
			}
		}
	}
	for n := 0; n < nodes; n++ {
		if want := fmt.Sprintf("node %d", n); tracks[n] != want {
			t.Fatalf("pid %d track name = %q, want %q", n, tracks[n], want)
		}
	}
	if slices == 0 {
		t.Fatal("trace contains no event slices")
	}
	if barrierMarkers == 0 {
		t.Fatal("trace contains no barrier-epoch markers")
	}
}
