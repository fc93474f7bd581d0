package perfmon

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hamster/internal/vclock"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Object
// Format" with a traceEvents array), as loaded by Perfetto and
// chrome://tracing. Virtual nanoseconds are exported as microseconds
// (the format's native unit) with fractional precision preserved.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func micros(d vclock.Duration) float64 { return float64(d) / 1e3 }

// WriteChromeTrace serializes the recorder's events as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each node becomes one track (pid = node, with a
// process_name metadata record), spanning events become complete ("X")
// slices on the node's timeline, and barrier crossings additionally emit
// global instant markers so epoch boundaries are visible across all
// tracks. Quiescent use only.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	trace := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	for node := 0; node < r.Nodes(); node++ {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   int32(node),
			TID:   0,
			Args:  map[string]any{"name": fmt.Sprintf("node %d", node)},
		})
		for _, ev := range r.events(node) {
			ce := chromeEvent{
				Name:  ev.Kind.String(),
				Phase: "X",
				TS:    micros(vclock.Duration(ev.At)),
				PID:   ev.Node,
				TID:   0,
				Cat:   eventCategory(ev.Kind),
				Args: map[string]any{
					"arg1": ev.Arg1,
					"arg2": ev.Arg2,
				},
			}
			d := micros(ev.Dur)
			ce.Dur = &d
			trace.TraceEvents = append(trace.TraceEvents, ce)
			if ev.Kind == EvBarrier {
				// A global instant marker at the crossing (the
				// slice's end) makes epoch boundaries visible
				// across every track in the Perfetto UI.
				trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
					Name:  fmt.Sprintf("barrier-epoch-%d", ev.Arg1),
					Phase: "i",
					TS:    micros(vclock.Duration(ev.At) + ev.Dur),
					PID:   ev.Node,
					TID:   0,
					Scope: "g",
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// eventCategory groups event kinds for the trace viewer's filter box.
func eventCategory(k EventKind) string {
	switch k {
	case EvPageFault, EvTwinCreate, EvDiffCreate, EvDiffApply,
		EvWriteNotice, EvInvalidate, EvHomeMigrate,
		EvBatchFlush, EvPrefetch, EvPrefetchWaste:
		return "dsm"
	case EvRemoteRead, EvRemoteWrite, EvMsgSend, EvMsgRecv:
		return "network"
	case EvLockAcquire, EvLockRelease, EvBarrier:
		return "sync"
	case EvService:
		return "service"
	default:
		return "other"
	}
}

// Summary formats per-node time breakdowns as a text table: one row per
// node with its category split (absolute and percent of that node's
// total), followed by an all-node total row. The breakdowns come from
// vclock.Clock.Breakdown at quiescence, so each row's categories sum to
// that node's final virtual time exactly.
func Summary(breakdowns []vclock.Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %14s %14s %14s %14s\n",
		"node", "total", "compute", "memory", "protocol", "network", "stolen")
	cell := func(d, total vclock.Duration) string {
		if total == 0 {
			return fmt.Sprintf("%14s", d.String())
		}
		return fmt.Sprintf("%s %4.1f%%", fmt.Sprintf("%7s", d.String()), 100*float64(d)/float64(total))
	}
	var all vclock.Breakdown
	for node, bd := range breakdowns {
		all = all.Add(bd)
		total := bd.Total()
		fmt.Fprintf(&b, "%-6d %14s %s %s %s %s %s\n",
			node, vclock.Duration(total).String(),
			cell(bd.Compute, total), cell(bd.Memory, total), cell(bd.Protocol, total),
			cell(bd.Network, total), cell(bd.Stolen, total))
	}
	total := all.Total()
	fmt.Fprintf(&b, "%-6s %14s %s %s %s %s %s\n",
		"all", vclock.Duration(total).String(),
		cell(all.Compute, total), cell(all.Memory, total), cell(all.Protocol, total),
		cell(all.Network, total), cell(all.Stolen, total))
	return b.String()
}
