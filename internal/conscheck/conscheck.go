// Package conscheck implements the formal consistency-reasoning mechanism
// the paper's Future Research section calls for (§6): "a more formal
// mechanism for reasoning about memory consistency … will allow memory
// consistency implementations to be more easily verified".
//
// Given an execution trace (recorded by the core's tracing hook), the
// checker verifies the property every relaxed model in the framework
// relies on: the program is data-race-free under the synchronization it
// actually performed. Two analyses run over the trace:
//
//   - Vector-clock happens-before race detection (FastTrack-style): two
//     accesses to the same word from different nodes, at least one a
//     write, with neither ordered before the other by program order,
//     lock release→acquire edges, or barriers, constitute a race. A racy
//     program may observe arbitrary staleness under Scope or Release
//     consistency — the checker pinpoints where.
//
//   - Eraser-style lockset discipline: for each shared word, the set of
//     locks consistently held across all its accesses. An empty lockset
//     on a word that several nodes write (without a barrier separating
//     them) flags fragile synchronization even when no race materialized
//     in this interleaving.
//
// Traces are intended for verification-sized runs: state is kept per
// word touched.
package conscheck

import (
	"fmt"
	"sort"
	"strings"

	"hamster/internal/memsim"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	Read Kind = iota
	Write
	Acquire
	Release
	Barrier
	Fence
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case Barrier:
		return "barrier"
	case Fence:
		return "fence"
	default:
		return "?"
	}
}

// Event is one entry of an execution trace. Accesses are word-granular
// (Addr is rounded down to a word boundary by the recorder).
type Event struct {
	Node int
	Kind Kind
	Addr memsim.Addr // Read/Write
	Lock int         // Acquire/Release
	Seq  int         // index within the global trace
}

// vc is a vector clock over node indices.
type vc []uint64

func newVC(n int) vc { return make(vc, n) }

func (v vc) copyOf() vc {
	out := make(vc, len(v))
	copy(out, v)
	return out
}

// joinFrom merges another clock into v (element-wise max).
func (v vc) joinFrom(o vc) {
	for i, t := range o {
		if t > v[i] {
			v[i] = t
		}
	}
}

// leq reports v ≤ o element-wise (v happens-before-or-equals o).
func (v vc) leq(o vc) bool {
	for i, t := range v {
		if t > o[i] {
			return false
		}
	}
	return true
}

// Race is one detected data race.
type Race struct {
	Addr       memsim.Addr
	FirstNode  int
	FirstKind  Kind
	FirstSeq   int
	SecondNode int
	SecondKind Kind
	SecondSeq  int
}

// String renders the race.
func (r Race) String() string {
	return fmt.Sprintf("race on 0x%x: node %d %s (event %d) unordered with node %d %s (event %d)",
		uint64(r.Addr), r.FirstNode, r.FirstKind, r.FirstSeq,
		r.SecondNode, r.SecondKind, r.SecondSeq)
}

// LocksetWarning flags a multi-writer word with an empty consistent
// lockset.
type LocksetWarning struct {
	Addr    memsim.Addr
	Writers []int
}

// String renders the warning.
func (w LocksetWarning) String() string {
	return fmt.Sprintf("word 0x%x written by nodes %v with no consistent lock", uint64(w.Addr), w.Writers)
}

// Report is the analysis result.
type Report struct {
	Events  int
	Words   int
	Races   []Race
	Lockset []LocksetWarning
}

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consistency check: %d events over %d shared words\n", r.Events, r.Words)
	if len(r.Races) == 0 {
		b.WriteString("  data-race-free: yes — execution is correct under Scope/Release consistency\n")
	} else {
		fmt.Fprintf(&b, "  data-race-free: NO — %d race(s)\n", len(r.Races))
		for i, race := range r.Races {
			if i == 8 {
				fmt.Fprintf(&b, "  ... %d more\n", len(r.Races)-8)
				break
			}
			fmt.Fprintf(&b, "  %s\n", race.String())
		}
	}
	for i, w := range r.Lockset {
		if i == 8 {
			fmt.Fprintf(&b, "  ... %d more lockset warnings\n", len(r.Lockset)-8)
			break
		}
		fmt.Fprintf(&b, "  lockset: %s\n", w.String())
	}
	return b.String()
}

type wordState struct {
	writeVC   vc // clock of the last write
	writeNode int
	writeKind Kind
	writeSeq  int
	readVCs   map[int]vc // last read per node (clock at read)
	readSeqs  map[int]int
	lockset   map[int]bool // Eraser: intersection of held locks, nil = untouched
	writers   map[int]bool
	barrierEp map[int]uint64 // barrier epoch at each writer's last write
}

// Analyze runs both analyses over a trace recorded from a cluster of the
// given size. Events must be in the globally recorded order (which the
// recorder guarantees is consistent with the synchronization that
// actually happened).
func Analyze(events []Event, nodes int) Report {
	clocks := make([]vc, nodes) // per-node vector clock
	for i := range clocks {
		clocks[i] = newVC(nodes)
		clocks[i][i] = 1
	}
	lockVC := map[int]vc{} // per-lock: clock of the last release
	held := make([]map[int]bool, nodes)
	for i := range held {
		held[i] = map[int]bool{}
	}
	barrierVC := newVC(nodes) // accumulating clock of the current barrier epoch
	barrierArrived := 0
	barrierEpoch := uint64(0)
	words := map[memsim.Addr]*wordState{}

	var report Report
	report.Events = len(events)

	tick := func(n int) { clocks[n][n]++ }

	for seq, ev := range events {
		n := ev.Node
		switch ev.Kind {
		case Acquire:
			if lv, ok := lockVC[ev.Lock]; ok {
				clocks[n].joinFrom(lv)
			}
			held[n][ev.Lock] = true
			tick(n)
		case Release:
			delete(held[n], ev.Lock)
			lockVC[ev.Lock] = clocks[n].copyOf()
			tick(n)
		case Fence:
			// A fence makes local state globally available but creates
			// ordering only with other fences in trace order: model as a
			// release+acquire on a dedicated "fence lock".
			const fenceLock = -1
			if lv, ok := lockVC[fenceLock]; ok {
				clocks[n].joinFrom(lv)
			}
			lockVC[fenceLock] = clocks[n].copyOf()
			tick(n)
		case Barrier:
			// Barriers come in trace order; collect a whole generation.
			barrierVC.joinFrom(clocks[n])
			barrierArrived++
			if barrierArrived == nodes {
				for i := range clocks {
					clocks[i].joinFrom(barrierVC)
					clocks[i][i]++
				}
				barrierVC = newVC(nodes)
				barrierArrived = 0
				barrierEpoch++
			}
		case Read, Write:
			w := words[ev.Addr]
			if w == nil {
				w = &wordState{
					readVCs:   map[int]vc{},
					readSeqs:  map[int]int{},
					writers:   map[int]bool{},
					barrierEp: map[int]uint64{},
				}
				words[ev.Addr] = w
			}
			// Race checks against the last write...
			if w.writeVC != nil && w.writeNode != n && !w.writeVC.leq(clocks[n]) {
				report.Races = append(report.Races, Race{
					Addr:      ev.Addr,
					FirstNode: w.writeNode, FirstKind: w.writeKind, FirstSeq: w.writeSeq,
					SecondNode: n, SecondKind: ev.Kind, SecondSeq: seq,
				})
			}
			if ev.Kind == Write {
				// ...and writes also race with unordered reads.
				for rn, rvc := range w.readVCs {
					if rn != n && !rvc.leq(clocks[n]) {
						report.Races = append(report.Races, Race{
							Addr:      ev.Addr,
							FirstNode: rn, FirstKind: Read, FirstSeq: w.readSeqs[rn],
							SecondNode: n, SecondKind: Write, SecondSeq: seq,
						})
					}
				}
				w.writeVC = clocks[n].copyOf()
				w.writeNode = n
				w.writeKind = Write
				w.writeSeq = seq
				w.writers[n] = true
				w.barrierEp[n] = barrierEpoch
				// Eraser lockset: intersect with currently held locks.
				if w.lockset == nil {
					w.lockset = map[int]bool{}
					for l := range held[n] {
						w.lockset[l] = true
					}
				} else {
					for l := range w.lockset {
						if !held[n][l] {
							delete(w.lockset, l)
						}
					}
				}
			} else {
				w.readVCs[n] = clocks[n].copyOf()
				w.readSeqs[n] = seq
			}
			tick(n)
		}
	}

	report.Words = len(words)

	// Lockset warnings: words written by several nodes within the same
	// barrier epoch whose lockset intersection came up empty.
	var addrs []memsim.Addr
	for a := range words {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		w := words[a]
		if len(w.writers) < 2 || (w.lockset != nil && len(w.lockset) > 0) {
			continue
		}
		epochs := map[uint64]int{}
		conflict := false
		for _, ep := range w.barrierEp {
			epochs[ep]++
			if epochs[ep] > 1 {
				conflict = true
			}
		}
		if !conflict {
			continue // writers separated by barriers: discipline is fine
		}
		var writers []int
		for n := range w.writers {
			writers = append(writers, n)
		}
		sort.Ints(writers)
		report.Lockset = append(report.Lockset, LocksetWarning{Addr: a, Writers: writers})
	}
	return report
}
