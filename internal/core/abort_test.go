package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hamster/internal/consengine"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/platform"
)

// everySubstrate builds a two-node runtime on each of the five substrates.
var everySubstrate = []struct {
	name  string
	build func(t *testing.T) *Runtime
}{
	{"smp", viaConfig(Config{Platform: platform.SMP})},
	{"hybriddsm", viaConfig(Config{Platform: platform.HybridDSM})},
	{"swdsm-scope", viaConfig(Config{Platform: platform.SWDSM})},
	{"swdsm-ivy", viaConfig(Config{Platform: platform.SWDSM, Engine: consengine.IVYName})},
	{"multidsm", func(t *testing.T) *Runtime {
		sub, err := multidsm.New(multidsm.Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		return newWithSubstrate(sub, machine.Default().Ethernet, false)
	}},
}

func viaConfig(cfg Config) func(t *testing.T) *Runtime {
	return func(t *testing.T) *Runtime {
		cfg.Nodes = 2
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
}

// TestNodePanicUnblocksPeers: a node or task that panics must not leave
// its peers blocked forever in a barrier it will never reach or on a lock
// it will never release — Run, Join and Main have to come back with the
// original panic. Every substrate gets this from the synchronization
// manager it embeds; before that, only the two software-DSM engines
// implemented AbortSync and the others hung here. Tasks once had no
// recover at all: a panicking task killed the process.
func TestNodePanicUnblocksPeers(t *testing.T) {
	// Each survivor blocks in one synchronization call; held and waiting
	// order the two sides on the host so the survivor is at (or about to
	// enter) that call when its peer dies.
	inRun := func(body func(e *Env, lock int, held, waiting chan struct{})) func(*Runtime, int) {
		return func(rt *Runtime, lock int) {
			held, waiting := make(chan struct{}), make(chan struct{})
			rt.Run(func(e *Env) { body(e, lock, held, waiting) })
		}
	}
	survivors := []struct {
		name string
		run  func(rt *Runtime, lock int)
	}{
		{"barrier", inRun(func(e *Env, _ int, held, waiting chan struct{}) {
			if e.ID() == 1 {
				panic("boom")
			}
			e.Sync.Barrier()
		})},
		{"lock", inRun(func(e *Env, lock int, held, waiting chan struct{}) {
			if e.ID() == 1 {
				e.Sync.Lock(lock)
				close(held)
				<-waiting
				panic("boom")
			}
			<-held
			close(waiting)
			e.Sync.Lock(lock)
		})},
		// A task's panic reaches its joiner.
		{"task-join", func(rt *Runtime, _ int) {
			rt.Main(func(e *Env, _ *Task) {
				task, _ := e.Task.SpawnOn(1, func(*Env, *Task) int64 { panic("boom") })
				e.Task.Join(task)
			})
		}},
		// A task's panic releases the initial thread from a barrier the
		// task will never reach.
		{"task-barrier", func(rt *Runtime, _ int) {
			rt.Main(func(e *Env, _ *Task) {
				e.Task.SpawnOn(1, func(*Env, *Task) int64 { panic("boom") })
				e.Sync.Barrier()
			})
		}},
		// ... and from a lock the task holds.
		{"task-lock", func(rt *Runtime, lock int) {
			rt.Main(func(e *Env, _ *Task) {
				held, waiting := make(chan struct{}), make(chan struct{})
				e.Task.SpawnOn(1, func(e *Env, _ *Task) int64 {
					e.Sync.Lock(lock)
					close(held)
					<-waiting
					panic("boom")
				})
				<-held
				close(waiting)
				e.Sync.Lock(lock)
			})
		}},
		// The initial thread's panic reaches Main's caller and releases
		// a task waiting on a lock it holds: joining the task afterwards
		// re-raises the abort instead of hanging.
		{"main-lock", func(rt *Runtime, lock int) {
			var task *Task
			defer func() {
				r := recover()
				func() {
					defer func() { recover() }()
					rt.Env(0).Task.Join(task)
				}()
				panic(r)
			}()
			rt.Main(func(e *Env, _ *Task) {
				e.Sync.Lock(lock)
				waiting := make(chan struct{})
				task, _ = e.Task.SpawnOn(1, func(e *Env, _ *Task) int64 {
					close(waiting)
					e.Sync.Lock(lock)
					return 0
				})
				<-waiting
				panic("boom")
			})
		}},
		// The initial thread's panic cannot wake a task waiting on an
		// event, a condition variable or a semaphore only it would have
		// posted; the task stays blocked, and Close, deferred while the
		// panic unwinds, must still return and let the panic through.
		{"main-event", mainDiesWhile(func(e *Env) {
			ev := e.Sync.NewEvent()
			waitIn(e, func(e *Env) { e.Sync.Wait(ev) })
		})},
		{"main-cond", mainDiesWhile(func(e *Env) {
			cv := e.Sync.NewCond()
			waitIn(e, func(e *Env) { e.Sync.CondWait(cv, func() {}, func() {}) })
		})},
		{"main-sem", mainDiesWhile(func(e *Env) {
			sem := e.Sync.NewSemaphore(0, 0)
			waitIn(e, func(e *Env) { e.Sync.SemAcquire(sem) })
		})},
	}
	for _, sub := range everySubstrate {
		for _, sv := range survivors {
			t.Run(sub.name+"/"+sv.name, func(t *testing.T) {
				rt := sub.build(t)
				lock := rt.Substrate().NewLock()
				raised := make(chan any, 1)
				go func() {
					defer func() { raised <- recover() }()
					defer rt.Close()
					sv.run(rt, lock)
				}()
				select {
				case r := <-raised:
					if !strings.Contains(fmt.Sprint(r), "boom") {
						t.Fatalf("re-raised %v, want the failed node's panic", r)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("still blocked 5 s after a node panicked")
				}
			})
		}
	}
}

// mainDiesWhile runs setup on the initial thread, then panics there.
func mainDiesWhile(setup func(e *Env)) func(*Runtime, int) {
	return func(rt *Runtime, _ int) {
		rt.Main(func(e *Env, _ *Task) {
			setup(e)
			panic("boom")
		})
	}
}

// waitIn starts a task on node 1 that blocks in wait and returns once the
// task is about to enter it.
func waitIn(e *Env, wait func(e *Env)) {
	waiting := make(chan struct{})
	e.Task.SpawnOn(1, func(e *Env, _ *Task) int64 {
		close(waiting)
		wait(e)
		return 0
	})
	<-waiting
}

// TestCloseNeedsQuiescence: Close hands the substrate's page buffers back
// for the next runtime, so it panics, naming the task, while one still
// runs, and a substrate access after it panics instead of reading a
// buffer another runtime may own by then.
func TestCloseNeedsQuiescence(t *testing.T) {
	for _, sub := range everySubstrate {
		t.Run(sub.name, func(t *testing.T) {
			rt := sub.build(t)
			var r memsim.Region
			release := make(chan struct{})
			var task *Task
			rt.Main(func(e *Env, _ *Task) {
				var err error
				if r, err = e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "x"}); err != nil {
					t.Fatal(err)
				}
				task, _ = e.Task.SpawnOn(1, func(e *Env, _ *Task) int64 {
					<-release
					return 0
				})
			})
			if msg := panicOf(rt.Close); !strings.Contains(msg, "task 1 on node 1 is still running") {
				t.Fatalf("Close with an unjoined task: panic %q, want it named", msg)
			}
			close(release)
			rt.Env(0).Task.Join(task)
			rt.Close()
			if msg := panicOf(func() { rt.Env(1).ReadF64(r.Base) }); !strings.Contains(msg, "after Close") {
				t.Fatalf("read after Close: panic %q, want an access-after-Close panic", msg)
			}
		})
	}
}

// panicOf runs fn and returns what it panicked with, "" when it did not.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}
