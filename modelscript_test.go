package hamster_test

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hamster"
	"hamster/models/anl"
	"hamster/models/openmp"
	"hamster/models/pthreads"
	"hamster/models/shmem"
	"hamster/models/spmd"
	"hamster/models/win32"
)

// TestModelScriptIdentity pins what the models' thread and collective
// calls observably do against goldens recorded on the code before Task
// Management numbered and placed threads and Cluster Control owned the
// reductions and broadcasts.
//
// The collective scripts (openmp, shmem, spmd) call every reduction and
// broadcast a model offers with Config.ParallelNodes on, so the order in
// which node 0 folds the leaves' values is a function of virtual time.
// The values are chosen so that a different fold order changes the
// result's bits, and each node computes for a different span first, so
// the arrival order is not node order. A line per node holds every
// result's bits, the node's clock after the last one and its per-module
// call counts.
//
// The thread scripts (pthreads, win32, anl) create threads round-robin,
// on explicit nodes and from inside a thread, and pin each thread's id,
// node and exit value as the creator sees them, then the per-module call
// counts of every node. Clocks are not pinned there: threads time-share
// a node's clock in host order.
func TestModelScriptIdentity(t *testing.T) {
	for _, sc := range modelScripts() {
		for _, cl := range []struct {
			name  string
			cfg   hamster.Config
			coll  bool
			nodes int
		}{
			{"swdsm/4", hamster.Config{Platform: hamster.SWDSM}, true, 4},
			{"hybrid/3", hamster.Config{Platform: hamster.HybridDSM}, true, 3},
			{"smp/4", hamster.Config{Platform: hamster.SMP}, false, 4},
			{"swdsm/3", hamster.Config{Platform: hamster.SWDSM}, false, 3},
		} {
			if cl.coll != sc.collective {
				continue
			}
			name := sc.name + "/" + cl.name
			t.Run(name, func(t *testing.T) {
				cfg := cl.cfg
				cfg.Nodes = cl.nodes
				cfg.ParallelNodes = sc.collective
				got := sc.run(t, cfg)
				want := modelScriptGolden[name]
				if slices.Equal(got, want) {
					return
				}
				var b strings.Builder
				fmt.Fprintf(&b, "\t%q: {\n", name)
				for i, line := range got {
					mark := ""
					if i >= len(want) || want[i] != line {
						mark = " // differs"
					}
					fmt.Fprintf(&b, "\t\t%q,%s\n", line, mark)
				}
				b.WriteString("\t},\n")
				t.Errorf("observables moved against the recorded golden; got:\n%s", b.String())
			})
		}
	}
}

type modelScript struct {
	name       string
	collective bool
	run        func(t *testing.T, cfg hamster.Config) []string
}

// leafValue is node id's contribution to a reduction: magnitudes far
// apart, so that the sum's bits depend on the order of the additions.
func leafValue(id int) float64 {
	return []float64{0.1, 1e16, -1e16, 3.25, 7e-3}[id%5] * float64(1+id/5)
}

// stagger delays node id by a span that falls with its id, so leaves
// reach the root in reverse node order.
func stagger(e *hamster.Env) { e.Compute(uint64(1000 * (e.N() - e.ID()))) }

// bits renders results exactly.
func bits(vs ...float64) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	return b.String()
}

var callsLine = regexp.MustCompile(`^\s+(\S+)\s+(\d+) calls$`)

// moduleCalls renders a node's per-module call counts from its monitor
// report.
func moduleCalls(e *hamster.Env) string {
	var parts []string
	for _, line := range strings.Split(e.Mon.Report(), "\n") {
		if m := callsLine.FindStringSubmatch(line); m != nil {
			parts = append(parts, m[1]+"="+m[2])
		}
	}
	return strings.Join(parts, " ")
}

// clock renders a node's virtual time right after its last collective.
// The clock at the end of the run is not pinned: openmp's implicit barrier
// on the software DSM steals time in host order (ROADMAP item 1).
func clock(e *hamster.Env) string { return fmt.Sprintf(" clock=%d", e.Now()) }

// holdUntilRead keeps the leaves out of openmp's implicit barrier until
// node 0 has read its clock: the barrier's messages steal time on node 0
// in host order.
func holdUntilRead(e *hamster.Env) {
	const tagRead, tagGo = 0x7e01, 0x7e02
	if e.ID() != 0 {
		e.Cluster.Send(0, tagRead, nil)
		e.Cluster.Recv(tagGo)
		return
	}
	for i := 1; i < e.N(); i++ {
		e.Cluster.Recv(tagRead)
	}
	for i := 1; i < e.N(); i++ {
		e.Cluster.Send(i, tagGo, nil)
	}
}

// nodeLines renders one line per node: the script's results for it and
// its module call counts.
func nodeLines(rt *hamster.Runtime, results []string) []string {
	out := make([]string, rt.Nodes())
	for i := range out {
		e := rt.Env(i)
		parts := []string{fmt.Sprintf("node%d", i)}
		if results[i] != "" {
			parts = append(parts, results[i])
		}
		out[i] = strings.Join(append(parts, moduleCalls(e)), " ")
	}
	return out
}

func modelScripts() []modelScript {
	return []modelScript{
		{"openmp", true, func(t *testing.T, cfg hamster.Config) []string {
			s, err := openmp.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			res := make([]string, cfg.Nodes)
			s.Parallel(func(o *openmp.OMP) {
				stagger(o.Env())
				a := o.ReduceSumF64(leafValue(o.ThreadNum()))
				b := o.ReduceSumF64(a + float64(o.ThreadNum()))
				res[o.ThreadNum()] = "sum=" + bits(a, b) + clock(o.Env())
				holdUntilRead(o.Env())
			})
			return nodeLines(s.Runtime(), res)
		}},
		{"shmem", true, func(t *testing.T, cfg hamster.Config) []string {
			s, err := shmem.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			res := make([]string, cfg.Nodes)
			s.Run(func(pe *shmem.PE) {
				stagger(pe.Env())
				v := leafValue(pe.MyPE())
				sum := pe.SumToAllF64(v)
				hi := pe.MaxToAllF64(v)
				lo := pe.MinToAllF64(v)
				root := pe.NPEs() - 1
				bc := pe.BroadcastF64(root, v*3)
				bc0 := pe.BroadcastF64(0, sum+v)
				res[pe.MyPE()] = "sum,max,min,bcast=" + bits(sum, hi, lo, bc, bc0) + clock(pe.Env())
			})
			return nodeLines(s.Runtime(), res)
		}},
		{"spmd", true, func(t *testing.T, cfg hamster.Config) []string {
			s, err := spmd.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			res := make([]string, cfg.Nodes)
			s.Run(func(p *spmd.Proc) {
				stagger(p.Env())
				v := leafValue(p.Me())
				sum := p.ReduceF64(v, spmd.Sum)
				hi := p.ReduceF64(v, spmd.Max)
				lo := p.ReduceF64(v, spmd.Min)
				bc := p.BcastF64(1, v*5)
				bc0 := p.BcastF64(0, sum-v)
				res[p.Me()] = "sum,max,min,bcast=" + bits(sum, hi, lo, bc, bc0) + clock(p.Env())
			})
			return nodeLines(s.Runtime(), res)
		}},
		{"pthreads", false, func(t *testing.T, cfg hamster.Config) []string {
			s, err := pthreads.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			var lines []string
			thread := func(w *pthreads.PT) int64 { return w.Self()*100 + int64(w.Node()) }
			s.Main(func(pt *pthreads.PT) {
				lines = append(lines, fmt.Sprintf("main tid=%d node=%d", pt.Self(), pt.Node()))
				mk := func(th *pthreads.Thread, err error) *pthreads.Thread {
					if err != nil {
						panic(err)
					}
					return th
				}
				join := func(ths ...*pthreads.Thread) {
					for _, th := range ths {
						lines = append(lines, fmt.Sprintf("thread tid=%d node=%d exit=%d", th.TID(), th.Node(), pt.Join(th)))
					}
				}
				join(mk(pt.Create(thread)), mk(pt.CreateOn(0, thread)), mk(pt.Create(thread)))
				// A thread that creates one of its own and passes its exit
				// value on; joined before the next create, so the ids are
				// handed out in one order.
				join(mk(pt.Create(func(w *pthreads.PT) int64 {
					inner := mk(w.Create(thread))
					return w.Join(inner)*1000 + inner.TID()*10 + int64(inner.Node())
				})))
				join(mk(pt.CreateOn(cfg.Nodes-1, thread)), mk(pt.Create(thread)))
			})
			return append(lines, nodeLines(s.Runtime(), make([]string, cfg.Nodes))...)
		}},
		{"win32", false, func(t *testing.T, cfg hamster.Config) []string {
			s, err := win32.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			var lines []string
			thread := func(w *win32.W32) int64 { return w.GetCurrentThreadID()*100 + int64(w.Env().ID()) }
			s.Main(func(w *win32.W32) {
				lines = append(lines, fmt.Sprintf("main tid=%d", w.GetCurrentThreadID()))
				mk := func(h *win32.ThreadHandle, err error) *win32.ThreadHandle {
					if err != nil {
						panic(err)
					}
					return h
				}
				exit := func(h *win32.ThreadHandle) string {
					code, done := w.GetExitCodeThread(h)
					return fmt.Sprintf("exit=%d,%t", code, done)
				}
				h1 := mk(w.CreateThread(thread))
				// Before any wait the handle reports no exit code and a
				// zero-timeout wait times out.
				lines = append(lines, fmt.Sprintf("h1 before wait: %s poll=%d", exit(h1), w.WaitForSingleObject(h1, 0)))
				h2 := mk(w.CreateThreadOn(cfg.Nodes-1, thread))
				h3 := mk(w.CreateThread(func(wt *win32.W32) int64 {
					inner := mk(wt.CreateThread(thread))
					wt.WaitForSingleObject(inner, win32.Infinite)
					code, _ := wt.GetExitCodeThread(inner)
					return code * 1000
				}))
				// h3's own create happens before the next one.
				lines = append(lines, fmt.Sprintf("wait h3=%d", w.WaitForSingleObject(h3, win32.Infinite)))
				h4 := mk(w.CreateThreadOn(0, thread))
				h5 := mk(w.CreateThread(thread))
				lines = append(lines, fmt.Sprintf("wait h1=%d poll=%d %s", w.WaitForSingleObject(h1, win32.Infinite), w.WaitForSingleObject(h1, 0), exit(h1)))
				lines = append(lines, fmt.Sprintf("wait all=%d", w.WaitForMultipleObjects([]win32.Handle{h2, h3, h4, h5}, true, win32.Infinite)))
				for i, h := range []*win32.ThreadHandle{h2, h3, h4, h5} {
					lines = append(lines, fmt.Sprintf("h%d %s", i+2, exit(h)))
				}
			})
			return append(lines, nodeLines(s.Runtime(), make([]string, cfg.Nodes))...)
		}},
		{"anl", false, func(t *testing.T, cfg hamster.Config) []string {
			s, err := anl.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			const workers = 5
			seen := make([]string, workers+1)
			var lines []string
			s.MainEnv(func(a *anl.ANL) {
				seen[a.GetPid()] = fmt.Sprintf("pid=%d node=%d", a.GetPid(), a.Env().ID())
				for i := 0; i < workers; i++ {
					a.Create(func(w *anl.ANL) {
						seen[w.GetPid()] = fmt.Sprintf("pid=%d node=%d", w.GetPid(), w.Env().ID())
					})
				}
				a.WaitForEnd(workers)
				lines = append(lines, seen...)
			})
			return append(lines, nodeLines(s.Runtime(), make([]string, cfg.Nodes))...)
		}},
	}
}
