package conscheck

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hamster/internal/consengine"
	"hamster/internal/memsim"
)

// This file is the consistency-engine conformance harness: small
// concurrent litmus programs (the classical message-passing, store-
// buffering, IRIW shapes plus synchronized increment and barrier
// publication) run repeatedly on an engine, and every OBSERVED outcome is
// checked against the engine's DECLARED model's allowed-outcome set. The
// check is one-directional on purpose: a model permits relaxed outcomes
// without obliging any execution to exhibit them, so never observing
// "r1=1 r2=0" on a scope engine is fine, while observing it once on a
// sequentially-consistent engine is a conformance violation. For the
// synchronized tests the harness additionally replays its own trace
// through the happens-before/lockset analyses (Analyze) to certify the
// data-race-freedom precondition the relaxed models' guarantees rest on.

// litmusVars is the number of shared variables a litmus machine provides.
// Each variable occupies word 0 of its own page (Cyclic placement), so
// the variables have distinct homes and no false sharing.
const litmusVars = 4

// litmusMachine gives a litmus program numbered shared variables, one
// lock, and the engine's synchronization, while recording the execution
// trace for the DRF analyses.
type litmusMachine struct {
	eng  consengine.Engine
	base memsim.Addr
	lock int

	mu    sync.Mutex
	trace []Event
}

// newLitmusMachine wraps an engine for one litmus trial.
func newLitmusMachine(eng consengine.Engine) (*litmusMachine, error) {
	r, err := eng.Alloc(litmusVars*memsim.PageSize, "litmus", memsim.Cyclic, -1)
	if err != nil {
		return nil, err
	}
	return &litmusMachine{eng: eng, base: r.Base, lock: eng.NewLock()}, nil
}

func (m *litmusMachine) addr(v int) memsim.Addr {
	if v < 0 || v >= litmusVars {
		panic(fmt.Sprintf("litmus: variable %d out of range", v))
	}
	return m.base + memsim.Addr(v)*memsim.PageSize
}

func (m *litmusMachine) record(ev Event) {
	m.mu.Lock()
	ev.Seq = len(m.trace)
	m.trace = append(m.trace, ev)
	m.mu.Unlock()
}

// write stores val into variable v from node.
func (m *litmusMachine) write(node, v int, val int64) {
	m.eng.WriteI64(node, m.addr(v), val)
	m.record(Event{Node: node, Kind: Write, Addr: m.addr(v)})
}

// read loads variable v from node.
func (m *litmusMachine) read(node, v int) int64 {
	val := m.eng.ReadI64(node, m.addr(v))
	m.record(Event{Node: node, Kind: Read, Addr: m.addr(v)})
	return val
}

// acquire takes the machine's lock. The event is recorded after the
// engine grants it, so the trace orders it after the previous holder's
// release.
func (m *litmusMachine) acquire(node int) {
	m.eng.Acquire(node, m.lock)
	m.record(Event{Node: node, Kind: Acquire, Lock: m.lock})
}

// release drops the machine's lock. The event is recorded before the
// engine releases, so it precedes the next holder's acquire in the trace.
func (m *litmusMachine) release(node int) {
	m.record(Event{Node: node, Kind: Release, Lock: m.lock})
	m.eng.Release(node, m.lock)
}

// barrier joins the global barrier. The event is recorded before
// arrival: every node's pre-barrier accesses then precede the complete
// barrier generation in the trace, which is the ordering Analyze needs.
func (m *litmusMachine) barrier(node int) {
	m.record(Event{Node: node, Kind: Barrier})
	m.eng.Barrier(node)
}

// events returns the recorded execution trace (after the trial joined).
func (m *litmusMachine) events() []Event { return m.trace }

// litmus is one conformance test.
type litmus struct {
	// Name identifies the test in verdicts.
	Name string
	// Nodes is the cluster size the program needs.
	Nodes int
	// Sync marks a synchronized program: its trace must be data-race-free
	// (verified with Analyze) and its outcome is model-independent.
	Sync bool
	// Run executes one node's program and returns that node's observation
	// ("" for pure writers). The trial's outcome is the node-ordered join.
	Run func(m *litmusMachine, node int) string
	// Forbidden reports whether an observed outcome is disallowed under
	// the declared model.
	Forbidden func(model consengine.Model, outcome string) bool
}

// battery is the standard conformance suite.
func battery() []litmus {
	return []litmus{
		messagePassing(),
		storeBuffering(),
		iriw(),
		lockedIncrements(),
		barrierPublication(),
	}
}

// messagePassing: node 0 publishes data then a flag, node 1 reads the
// flag then the data. Seeing the flag without the data is the classic
// relaxed-consistency reordering; Processor consistency and stronger
// forbid it (node 0's writes must be observed in order), Release/Scope
// allow it for this unsynchronized program.
func messagePassing() litmus {
	return litmus{
		Name:  "message-passing",
		Nodes: 2,
		Run: func(m *litmusMachine, node int) string {
			if node == 0 {
				m.write(0, 0, 1) // data
				m.write(0, 1, 1) // flag
				return ""
			}
			r1 := m.read(1, 1) // flag
			r2 := m.read(1, 0) // data
			return fmt.Sprintf("flag=%d data=%d", r1, r2)
		},
		Forbidden: func(model consengine.Model, outcome string) bool {
			return model <= consengine.Processor && outcome == "flag=1 data=0"
		},
	}
}

// storeBuffering: each node writes its variable then reads the other's.
// Both reading zero requires each node's read to bypass the other's
// earlier write — forbidden only under Sequential consistency.
func storeBuffering() litmus {
	return litmus{
		Name:  "store-buffering",
		Nodes: 2,
		Run: func(m *litmusMachine, node int) string {
			m.write(node, node, 1)
			r := m.read(node, 1-node)
			return fmt.Sprintf("r%d=%d", node, r)
		},
		Forbidden: func(model consengine.Model, outcome string) bool {
			return model <= consengine.Sequential && outcome == "r0=0 r1=0"
		},
	}
}

// iriw (independent reads of independent writes): two writers, two
// readers reading in opposite orders. The readers disagreeing on the
// write order is forbidden only under Sequential consistency (it denies
// a single global write serialization).
func iriw() litmus {
	return litmus{
		Name:  "iriw",
		Nodes: 4,
		Run: func(m *litmusMachine, node int) string {
			switch node {
			case 0:
				m.write(0, 0, 1)
				return ""
			case 1:
				m.write(1, 1, 1)
				return ""
			case 2:
				x := m.read(2, 0)
				y := m.read(2, 1)
				return fmt.Sprintf("n2:x=%d,y=%d", x, y)
			default:
				y := m.read(3, 1)
				x := m.read(3, 0)
				return fmt.Sprintf("n3:y=%d,x=%d", y, x)
			}
		},
		Forbidden: func(model consengine.Model, outcome string) bool {
			return model <= consengine.Sequential &&
				outcome == "n2:x=1,y=0 n3:y=1,x=0"
		},
	}
}

// lockedIncrements: every node increments a shared counter under the
// lock. Exactly nodes*rounds is the single allowed outcome on EVERY
// model — lock-protected read-modify-write is the contract all of them
// share — and the trace must be data-race-free.
func lockedIncrements() litmus {
	const rounds = 8
	return litmus{
		Name:  "locked-increments",
		Nodes: 4,
		Sync:  true,
		Run: func(m *litmusMachine, node int) string {
			for i := 0; i < rounds; i++ {
				m.acquire(node)
				m.write(node, 0, m.read(node, 0)+1)
				m.release(node)
			}
			m.barrier(node)
			if node != 0 {
				return ""
			}
			return fmt.Sprintf("total=%d", m.read(0, 0))
		},
		Forbidden: func(_ consengine.Model, outcome string) bool {
			return outcome != fmt.Sprintf("total=%d", 4*rounds)
		},
	}
}

// barrierPublication: readers cache a variable, the writer updates it,
// and a barrier publishes the update. Every model must deliver the new
// value — this is the test that deterministically catches an engine
// whose release/barrier action fails to invalidate stale copies.
func barrierPublication() litmus {
	return litmus{
		Name:  "barrier-publication",
		Nodes: 4,
		Sync:  true,
		Run: func(m *litmusMachine, node int) string {
			if node == 0 {
				m.write(0, 0, 1)
			}
			m.barrier(node)
			m.read(node, 0) // every node caches a copy of the old value
			m.barrier(node)
			if node == 0 {
				m.write(0, 0, 2)
			}
			m.barrier(node)
			if node == 0 {
				return ""
			}
			return fmt.Sprintf("x=%d", m.read(node, 0))
		},
		Forbidden: func(_ consengine.Model, outcome string) bool {
			return outcome != "x=2 x=2 x=2"
		},
	}
}

// verdict is the result of running one litmus test on one engine.
type verdict struct {
	Test   string
	Model  consengine.Model
	Trials int
	// Observed maps each distinct outcome to its occurrence count.
	Observed map[string]int
	// Violations lists observed outcomes the declared model forbids.
	Violations []string
	// Races holds data races found in a Sync test's trace — a failed
	// precondition, reported separately from model violations.
	Races []string
}

// ok reports conformance: no forbidden outcome and no precondition race.
func (v verdict) ok() bool { return len(v.Violations) == 0 && len(v.Races) == 0 }

// String renders the verdict.
func (v verdict) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%v, %d trials): ", v.Test, v.Model, v.Trials)
	if v.ok() {
		b.WriteString("conforms")
	} else {
		b.WriteString("VIOLATION")
		for _, viol := range v.Violations {
			fmt.Fprintf(&b, "\n  forbidden outcome observed: %q (%d times)", viol, v.Observed[viol])
		}
		for _, r := range v.Races {
			fmt.Fprintf(&b, "\n  precondition race: %s", r)
		}
	}
	outcomes := make([]string, 0, len(v.Observed))
	for o := range v.Observed {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Fprintf(&b, "\n  observed %q ×%d", o, v.Observed[o])
	}
	return b.String()
}

// runLitmus executes one test for `trials` independent trials, building a
// fresh engine each time, and judges the observed outcomes against the
// engine's declared model.
func runLitmus(l litmus, build func(nodes int) (consengine.Engine, error), trials int) (verdict, error) {
	v := verdict{Test: l.Name, Trials: trials, Observed: map[string]int{}}
	for trial := 0; trial < trials; trial++ {
		eng, err := build(l.Nodes)
		if err != nil {
			return v, fmt.Errorf("litmus %s: building engine: %w", l.Name, err)
		}
		if trial == 0 {
			v.Model = eng.DeclaredModel()
		}
		m, err := newLitmusMachine(eng)
		if err != nil {
			eng.Close()
			return v, fmt.Errorf("litmus %s: %w", l.Name, err)
		}
		obs := make([]string, l.Nodes)
		var wg sync.WaitGroup
		for node := 0; node < l.Nodes; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				obs[node] = l.Run(m, node)
			}(node)
		}
		wg.Wait()
		parts := obs[:0]
		for _, o := range obs {
			if o != "" {
				parts = append(parts, o)
			}
		}
		outcome := strings.Join(parts, " ")
		v.Observed[outcome]++
		if l.Sync && trial == 0 {
			// The DRF precondition is a property of the program, not the
			// schedule sample: one trace certification suffices.
			report := Analyze(m.events(), l.Nodes)
			for _, r := range report.Races {
				v.Races = append(v.Races, r.String())
			}
		}
		eng.Close()
	}
	for outcome := range v.Observed {
		if l.Forbidden(v.Model, outcome) {
			v.Violations = append(v.Violations, outcome)
		}
	}
	sort.Strings(v.Violations)
	return v, nil
}

// runBattery runs the full conformance suite against one engine builder.
func runBattery(build func(nodes int) (consengine.Engine, error), trials int) ([]verdict, error) {
	var out []verdict
	for _, l := range battery() {
		v, err := runLitmus(l, build, trials)
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}
