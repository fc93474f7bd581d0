package core

import (
	"testing"

	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/simnet"
)

func newRT(t testing.TB, kind platform.Kind, nodes int) *Runtime {
	t.Helper()
	rt, err := New(Config{Platform: kind, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Platform: platform.SWDSM, Nodes: 0}); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	if _, err := New(Config{Platform: platform.Kind(77), Nodes: 2}); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestAllPlatformsConstruct(t *testing.T) {
	for _, k := range []platform.Kind{platform.SMP, platform.HybridDSM, platform.SWDSM} {
		rt := newRT(t, k, 2)
		if rt.Nodes() != 2 {
			t.Fatalf("%v: nodes = %d", k, rt.Nodes())
		}
		if rt.Substrate().Kind() != k {
			t.Fatalf("%v: wrong substrate", k)
		}
	}
}

func TestCollectiveAlloc(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 4)
	regions := make([]memsim.Region, 4)
	rt.Run(func(e *Env) {
		r, err := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "g", Policy: memsim.Block, Collective: true})
		if err != nil {
			panic(err)
		}
		regions[e.ID()] = r
	})
	for i := 1; i < 4; i++ {
		if regions[i] != regions[0] {
			t.Fatalf("node %d got different region: %+v vs %+v", i, regions[i], regions[0])
		}
	}
}

func TestCollectiveAllocSequence(t *testing.T) {
	// Two collective allocations in program order must pair up correctly.
	rt := newRT(t, platform.SMP, 3)
	var a, b [3]memsim.Region
	rt.Run(func(e *Env) {
		r1, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "a", Collective: true})
		r2, _ := e.Mem.Alloc(2*memsim.PageSize, AllocOpts{Name: "b", Collective: true})
		a[e.ID()], b[e.ID()] = r1, r2
	})
	for i := 1; i < 3; i++ {
		if a[i] != a[0] || b[i] != b[0] {
			t.Fatal("collective allocation sequence mismatch")
		}
	}
	if a[0].Base == b[0].Base {
		t.Fatal("distinct allocations must not alias")
	}
}

func TestDistributeAndAccept(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	var got memsim.Region
	rt.Run(func(e *Env) {
		if e.ID() == 0 {
			r, err := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "tmk", Policy: memsim.Fixed})
			if err != nil {
				panic(err)
			}
			e.Mem.Distribute(r)
			got = r
		} else {
			r, ok := e.Mem.AcceptRegion()
			if !ok {
				panic("AcceptRegion failed")
			}
			if r.Size != memsim.PageSize {
				panic("wrong region distributed")
			}
		}
	})
	if got.Size == 0 {
		t.Fatal("allocation failed")
	}
}

func TestAllocRejectsUnsupportedPolicy(t *testing.T) {
	rt := newRT(t, platform.SMP, 2)
	e := rt.Env(0)
	if !e.Mem.Probe().HardwareCoherent {
		t.Fatal("SMP must be hardware coherent")
	}
	// All policies are accepted on our substrates; verify the error path
	// with an out-of-range fixed node instead.
	if _, err := e.Mem.Alloc(10, AllocOpts{Policy: memsim.Fixed, FixedNode: 99}); err == nil {
		t.Fatal("expected error for bad fixed node")
	}
}

func TestSyncLockProtectsCounter(t *testing.T) {
	for _, kind := range []platform.Kind{platform.SMP, platform.HybridDSM, platform.SWDSM} {
		t.Run(kind.String(), func(t *testing.T) {
			rt := newRT(t, kind, 3)
			var region memsim.Region
			var lock int
			rt.Run(func(e *Env) {
				r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "c", Collective: true})
				if e.ID() == 0 {
					region = r
					lock = e.Sync.NewLock()
				}
				e.Sync.Barrier()
				for i := 0; i < 20; i++ {
					e.Sync.Lock(lock)
					e.WriteI64(r.Base, e.ReadI64(r.Base)+1)
					e.Sync.Unlock(lock)
				}
				e.Sync.Barrier()
			})
			e := rt.Env(0)
			e.Sync.Lock(lock)
			got := e.ReadI64(region.Base)
			e.Sync.Unlock(lock)
			if got != 60 {
				t.Fatalf("counter = %d, want 60", got)
			}
		})
	}
}

func TestRawLockMutualExclusion(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	var id int
	order := make(chan int, 4)
	rt.Run(func(e *Env) {
		if e.ID() == 0 {
			id = e.Sync.NewRawLock()
		}
		e.Sync.Barrier()
		e.Sync.RawLock(id)
		order <- e.ID()
		e.Compute(1000)
		order <- e.ID()
		e.Sync.RawUnlock(id)
	})
	close(order)
	var seq []int
	for v := range order {
		seq = append(seq, v)
	}
	if len(seq) != 4 || seq[0] != seq[1] || seq[2] != seq[3] {
		t.Fatalf("critical sections interleaved: %v", seq)
	}
}

func TestEventSignalWait(t *testing.T) {
	rt := newRT(t, platform.SMP, 2)
	ev := rt.Env(0).Sync.NewEvent()
	rt.Run(func(e *Env) {
		if e.ID() == 0 {
			e.Compute(100000)
			e.Sync.Signal(ev)
		} else {
			e.Sync.Wait(ev)
			ev.mu.Lock()
			fired := ev.fired
			ev.mu.Unlock()
			if !fired {
				panic("event not fired after Wait")
			}
		}
	})
	// Waiter's clock must be past the signaler's signal time.
	if rt.Env(1).Now() < rt.Env(0).Now()/2 {
		t.Fatal("waiter clock not reconciled with signaler")
	}
}

func TestEventSticky(t *testing.T) {
	rt := newRT(t, platform.SMP, 1)
	e := rt.Env(0)
	ev := e.Sync.NewEvent()
	e.Sync.Signal(ev)
	e.Sync.Wait(ev) // must not block
}

func TestTaskSpawnOnAndJoin(t *testing.T) {
	rt, err := New(Config{Platform: platform.SMP, Nodes: 2, Threaded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	e0 := rt.Env(0)
	task, err := e0.Task.SpawnOn(1, func(e *Env, _ *Task) int64 {
		if e.ID() != 1 {
			t.Errorf("task ran on node %d, want 1", e.ID())
		}
		e.Compute(5000)
		return 42
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e0.Task.Join(task); got != 42 {
		t.Fatalf("join result = %d", got)
	}
	if task.Node() != 1 {
		t.Fatal("wrong task node")
	}
	// Forwarded execution charged the target node's clock.
	if rt.Env(1).Now() == 0 {
		t.Fatal("target clock not charged")
	}
}

// TestTaskNumbersAndPlacement: tasks are numbered per runtime in spawn
// call order after the initial thread's 0, only Spawn advances the
// round-robin placement, and a task's exit code is reported once a Join
// has returned it.
func TestTaskNumbersAndPlacement(t *testing.T) {
	rt, err := New(Config{Platform: platform.SMP, Nodes: 3, Threaded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Main(func(e *Env, self *Task) {
		if self.Num() != 0 || self.Node() != 0 {
			t.Errorf("initial thread is task %d on node %d, want 0 on 0", self.Num(), self.Node())
		}
		body := func(e *Env, self *Task) int64 { return self.Num()*10 + int64(e.ID()) }
		on, err := e.Task.SpawnOn(0, body)
		if err != nil {
			t.Fatal(err)
		}
		tasks := []*Task{on, e.Task.Spawn(body), e.Task.Spawn(body), e.Task.Spawn(body), e.Task.Spawn(body)}
		for i, want := range [][2]int64{{1, 0}, {2, 1}, {3, 2}, {4, 0}, {5, 1}} {
			task := tasks[i]
			if code, ok := task.ExitCode(); ok || code != 0 {
				t.Errorf("task %d reports exit (%d, %t) before a join", task.Num(), code, ok)
			}
			got := e.Task.Join(task)
			if task.Num() != want[0] || int64(task.Node()) != want[1] || got != want[0]*10+want[1] {
				t.Errorf("task %d on node %d exited %d, want task %d on node %d", task.Num(), task.Node(), got, want[0], want[1])
			}
			if code, ok := task.ExitCode(); !ok || code != got {
				t.Errorf("task %d reports exit (%d, %t) after joining %d", task.Num(), code, ok, got)
			}
		}
	})
}

func TestTaskSpawnInvalidNode(t *testing.T) {
	rt := newRT(t, platform.SMP, 2)
	if _, err := rt.Env(0).Task.SpawnOn(9, func(*Env, *Task) int64 { return 0 }); err == nil {
		t.Fatal("expected error")
	}
}

func TestClusterMessaging(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 3)
	rt.Run(func(e *Env) {
		switch e.ID() {
		case 0:
			e.Cluster.Send(1, 7, []byte("to1"))
			e.Cluster.broadcast(9, []byte("all"))
		case 1:
			p, from, ok := e.Cluster.Recv(7)
			if !ok || from != 0 || string(p) != "to1" {
				panic("direct message corrupted")
			}
			p, _, ok = e.Cluster.Recv(9)
			if !ok || string(p) != "all" {
				panic("broadcast missing")
			}
		case 2:
			p, from, ok := e.Cluster.Recv(9)
			if !ok || from != 0 || string(p) != "all" {
				panic("broadcast corrupted")
			}
		}
	})
	msgs, bytes := rt.msgs.TotalTraffic()
	if msgs != 3 || bytes != 9 {
		t.Fatalf("traffic = %d msgs / %d bytes", msgs, bytes)
	}
}

func TestClusterTryRecv(t *testing.T) {
	rt := newRT(t, platform.SMP, 2)
	tryRecv := func(tag uint32) ([]byte, bool) {
		m := rt.msgs.TryRecv(toNodeID(1), kindUserMsg, func(m *msgT) bool { return m.Tag == tag })
		if m == nil {
			return nil, false
		}
		return m.Payload, true
	}
	if _, ok := tryRecv(5); ok {
		t.Fatal("TryRecv on empty queue must fail")
	}
	rt.Env(0).Cluster.Send(1, 5, []byte("x"))
	if p, ok := tryRecv(5); !ok || string(p) != "x" {
		t.Fatal("TryRecv after send failed")
	}
}

func TestQueryNode(t *testing.T) {
	rt := newRT(t, platform.HybridDSM, 2)
	np := rt.Env(0).Cluster.QueryNode(1)
	if np.ID != 1 || np.Platform != "hybrid-dsm" || np.FlopNs == 0 {
		t.Fatalf("QueryNode = %+v", np)
	}
}

func TestMonitorCounts(t *testing.T) {
	rt := newRT(t, platform.SMP, 2)
	e := rt.Env(0)
	e.Sync.NewLock()
	l := 0
	e.Sync.Lock(l)
	e.Sync.Unlock(l)
	if e.Mon.calls(ModSync) != 3 {
		t.Fatalf("sync calls = %d, want 3", e.Mon.calls(ModSync))
	}
	e.Mem.Probe() // uncharged (pure query)
	if _, err := e.Mem.Alloc(10, AllocOpts{}); err != nil {
		t.Fatal(err)
	}
	if e.Mon.calls(ModMem) != 1 {
		t.Fatalf("mem calls = %d, want 1", e.Mon.calls(ModMem))
	}
	if totalCalls(e.Mon) != 4 {
		t.Fatalf("total = %d", totalCalls(e.Mon))
	}
	e.Mon.ResetAll()
	if totalCalls(e.Mon) != 0 {
		t.Fatal("ResetAll failed")
	}
	if rep := e.Mon.Report(); rep == "" {
		t.Fatal("empty report")
	}
	if rep := ClusterReport(rt); rep == "" {
		t.Fatal("empty cluster report")
	}
}

func TestServiceCallsCostTime(t *testing.T) {
	rt := newRT(t, platform.SMP, 1)
	e := rt.Env(0)
	before := e.Now()
	e.Sync.NewLock()
	if e.Now() <= before {
		t.Fatal("service call must advance the clock (CallNs)")
	}
}

func TestConsFenceAndModels(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	m := nativeModel(rt)
	if m != Scope {
		t.Fatalf("native model = %v", m)
	}
	// Models order strongest first.
	if m <= Sequential {
		t.Fatal("a scope engine must not claim sequential consistency")
	}
	if m > Scope || m > Entry {
		t.Fatal("scope engine must support scope and weaker models")
	}
	e := rt.Env(0)
	r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Policy: memsim.Fixed, FixedNode: 1})
	e.WriteF64(r.Base, 3.5)
	e.Cons.Fence()
	if got := e.ReadF64(r.Base); got != 3.5 {
		t.Fatalf("read after fence = %v", got)
	}
}

func TestConsModelStrings(t *testing.T) {
	for m, want := range map[ConsModel]string{
		Sequential: "sequential", Processor: "processor",
		Release: "release", Scope: "scope", Entry: "entry",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestModuleStrings(t *testing.T) {
	for m, want := range map[Module]string{
		ModMem: "memory", ModCons: "consistency", ModSync: "synchronization",
		ModTask: "task", ModCluster: "cluster",
	} {
		if m.String() != want {
			t.Fatalf("module %d = %q", int(m), m.String())
		}
	}
}

func TestSeparateMessagingIsSlower(t *testing.T) {
	run := func(mode machine.MessagingMode) uint64 {
		rt, err := New(Config{Platform: platform.SWDSM, Nodes: 2, Messaging: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.Run(func(e *Env) {
			r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "x", Policy: memsim.Fixed, Collective: true})
			for i := 0; i < 10; i++ {
				if e.ID() == 1 {
					e.WriteF64(r.Base, float64(i))
				}
				e.Sync.Barrier()
			}
		})
		return uint64(rt.MaxTime())
	}
	coal := run(machine.Coalesced)
	sep := run(machine.Separate)
	if coal >= sep {
		t.Fatalf("coalesced (%d) must beat separate (%d)", coal, sep)
	}
}

func TestIdenticalProgramAcrossPlatforms(t *testing.T) {
	// The §5.4 claim at the core-API level: one program, three platforms,
	// same numerical result.
	program := func(rt *Runtime) float64 {
		var region memsim.Region
		var lock int
		rt.Run(func(e *Env) {
			r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "acc", Collective: true})
			if e.ID() == 0 {
				region = r
				lock = e.Sync.NewLock()
			}
			e.Sync.Barrier()
			partial := 0.0
			for i := e.ID(); i < 100; i += e.N() {
				partial += float64(i)
			}
			e.Sync.Lock(lock)
			e.WriteF64(r.Base, e.ReadF64(r.Base)+partial)
			e.Sync.Unlock(lock)
			e.Sync.Barrier()
		})
		e := rt.Env(0)
		e.Sync.Lock(lock)
		defer e.Sync.Unlock(lock)
		return e.ReadF64(region.Base)
	}
	want := 4950.0
	for _, kind := range []platform.Kind{platform.SMP, platform.HybridDSM, platform.SWDSM} {
		rt := newRT(t, kind, 4)
		if got := program(rt); got != want {
			t.Fatalf("%v: result = %v, want %v", kind, got, want)
		}
	}
}

// newWithSubstrate wraps an existing substrate, for the substrates
// Config cannot name (multidsm).
func newWithSubstrate(sub platform.Substrate, msgLink machine.Link, threaded bool) *Runtime {
	rt := &Runtime{
		cfg: Config{Platform: sub.Kind(), Nodes: sub.Nodes(), Threaded: threaded},
		sub: sub,
	}
	rt.msgs = simnet.New(msgLink, substrateClocks(sub))
	rt.am = layerOf(sub)
	rt.attachRecorder()
	rt.buildEnvs()
	return rt
}

func TestNewWithSubstrate(t *testing.T) {
	rtBase := newRT(t, platform.SMP, 2)
	rt := newWithSubstrate(rtBase.Substrate(), machine.Default().BusLink(), false)
	if rt.Nodes() != 2 || rt.Env(1).ID() != 1 {
		t.Fatal("newWithSubstrate wiring broken")
	}
}

func TestTimingHelpers(t *testing.T) {
	rt := newRT(t, platform.SMP, 1)
	e := rt.Env(0)
	start := e.Now()
	e.Compute(1_000_000)
	if e.Elapsed(start) == 0 {
		t.Fatal("Elapsed must reflect compute")
	}
	if rt.MaxTime() == 0 {
		t.Fatal("MaxTime zero after work")
	}
	if e.Runtime() != rt {
		t.Fatal("Runtime accessor broken")
	}
}

func TestTracingDetectsRace(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	var region memsim.Region
	rt.Run(func(e *Env) {
		r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "racy", Collective: true})
		if e.ID() == 0 {
			region = r
		}
	})
	rt.StartTrace()
	rt.Run(func(e *Env) {
		// Deliberate race: both nodes write the same word, no sync.
		e.WriteF64(region.Base, float64(e.ID()))
	})
	rep := rt.CheckConsistency()
	if len(rep.Races) == 0 {
		t.Fatalf("racy program not flagged: %s", rep)
	}
}

// A byte span is traced word by word: a store into the middle of a span
// another node writes without synchronisation is a race, and the same two
// accesses under one lock are not.
func TestTracingCleanProgramIsDRF(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 3)
	rt.StartTrace()
	var lock int
	rt.Run(func(e *Env) {
		r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "clean", Collective: true})
		if e.ID() == 0 {
			lock = e.Sync.NewLock()
		}
		e.Sync.Barrier()
		for i := 0; i < 5; i++ {
			e.Sync.Lock(lock)
			e.WriteI64(r.Base, e.ReadI64(r.Base)+1)
			e.Sync.Unlock(lock)
		}
		e.Sync.Barrier()
		e.ReadI64(r.Base) // read after barrier: ordered
	})
	rep := rt.CheckConsistency()
	if len(rep.Races) != 0 {
		t.Fatalf("clean program flagged: %s", rep)
	}
	if rep.Events == 0 || rep.Words == 0 {
		t.Fatal("trace empty")
	}
	if len(rep.Lockset) != 0 {
		t.Fatalf("lockset warnings on disciplined program: %v", rep.Lockset)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	rt := newRT(t, platform.SMP, 1)
	rt.Run(func(e *Env) {
		r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{})
		e.WriteF64(r.Base, 1)
	})
	if rec := rt.stopTrace(); rec != nil {
		t.Fatal("tracing was on without StartTrace")
	}
	if rep := rt.CheckConsistency(); rep.Events != 0 {
		t.Fatal("report from disabled tracing must be empty")
	}
}

func TestSamplerCollectsEpochSeries(t *testing.T) {
	rt := newRT(t, platform.SWDSM, 2)
	sampler := rt.AttachSampler()
	rt.Run(func(e *Env) {
		r, _ := e.Mem.Alloc(memsim.PageSize, AllocOpts{Name: "s", Policy: memsim.Fixed, Collective: true})
		for it := 0; it < 3; it++ {
			if e.ID() == 1 {
				e.WriteF64(r.Base, float64(it))
			}
			e.Sync.Barrier()
		}
	})
	rt.DetachSampler()

	series := sampler.series(1)
	// Three explicit loop barriers (the collective-alloc barrier is a
	// service-internal rendezvous and is not sampled).
	if len(series) != 3 {
		t.Fatalf("node 1 samples = %d, want 3", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Epoch != series[i-1].Epoch+1 {
			t.Fatal("epochs not consecutive")
		}
		if series[i].At < series[i-1].At {
			t.Fatal("virtual time not monotone across epochs")
		}
	}
	// Node 1's activity (twins/diffs) must grow over the writing epochs.
	last := series[len(series)-1]
	if last.Stats.DiffsCreated == 0 {
		t.Fatal("sampler missed diff activity")
	}
	if last.Calls[ModSync] == 0 {
		t.Fatal("sampler missed module call counters")
	}
	if tl := sampler.Timeline(1); tl == "" {
		t.Fatal("empty timeline")
	}
	if got := len(sampler.samples); got != 6 {
		t.Fatalf("total samples = %d, want 6 (2 nodes x 3 epochs)", got)
	}
}

func TestSamplerDetached(t *testing.T) {
	rt := newRT(t, platform.SMP, 2)
	if rt.DetachSampler() != nil {
		t.Fatal("detach with no sampler must return nil")
	}
	rt.Run(func(e *Env) { e.Sync.Barrier() })
	// No panic, nothing sampled.
}

func TestThreadedModeSerializesSameNodeTasks(t *testing.T) {
	// Two tasks time-sharing one node must not corrupt substrate state:
	// they hammer DSM accesses concurrently under Threaded serialization.
	rt, err := New(Config{Platform: platform.SWDSM, Nodes: 2, Threaded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	e0 := rt.Env(0)
	r, _ := e0.Mem.Alloc(4*memsim.PageSize, AllocOpts{Name: "t", Policy: memsim.Fixed, FixedNode: 1})
	lock := e0.Sync.NewLock()

	var tasks []*Task
	for k := 0; k < 3; k++ {
		task, err := e0.Task.SpawnOn(0, func(e *Env, _ *Task) int64 {
			for i := 0; i < 50; i++ {
				e.Sync.Lock(lock)
				a := r.Base + memsim.Addr(8*(i%100))
				e.WriteI64(a, e.ReadI64(a)+1)
				e.Sync.Unlock(lock)
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	for _, task := range tasks {
		e0.Task.Join(task)
	}
	// Validate totals.
	total := int64(0)
	e0.Sync.Lock(lock)
	for i := 0; i < 100; i++ {
		total += e0.ReadI64(r.Base + memsim.Addr(8*i))
	}
	e0.Sync.Unlock(lock)
	if total != 150 {
		t.Fatalf("total = %d, want 150", total)
	}
}
