package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"hamster/internal/vclock"
)

// TaskMgr is the Task Management module (§4.2). It deliberately does not
// define a thread API of its own — that would impose semantics on the
// models — but provides the mechanisms thread models are built from:
// node-targeted task spawning (the forwarding primitive of §5.2),
// round-robin placement, per-runtime task numbers, and joinable handles
// that keep their exit state. Thread models keep platform-native semantics
// by layering their own call signatures over these services.
type TaskMgr struct {
	e *Env
}

// Task is one thread of a runtime: the initial thread Runtime.Main runs,
// or a joinable spawned task.
type Task struct {
	num  int64
	node int
	done *Event // nil for the initial thread

	mu      sync.Mutex
	result  int64 // word-sized exit value (pthread-style return/exit codes)
	failure any   // the task's panic, re-raised by Join
	joined  bool
}

// Num returns the task's number in its runtime: 0 for the initial thread,
// then 1, 2, ... in the order the spawns were called.
func (t *Task) Num() int64 { return t.num }

// Node returns the node the task runs on.
func (t *Task) Node() int { return t.node }

// ExitCode reports the task's exit value and whether a Join has returned
// it; (0, false) until one has.
func (t *Task) ExitCode() (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.joined {
		return 0, false
	}
	return t.result, true
}

// taskCounts numbers a runtime's tasks and places its round-robin spawns.
type taskCounts struct {
	mu      sync.Mutex
	spawned int64
	placed  int
}

// newTask numbers the next task and, for node -1, places it on the next
// node round-robin: the k-th placed spawn lands on node k mod N, so the
// first leaves node 0, where the initial thread runs.
func (rt *Runtime) newTask(node int) *Task {
	c := &rt.tasks
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spawned++
	if node < 0 {
		c.placed++
		node = c.placed % rt.sub.Nodes()
	}
	return &Task{num: c.spawned, node: node}
}

// Main runs fn as the initial thread of a thread model — task 0, on node
// 0 — on the caller's goroutine. A panic in it aborts the runtime as a
// spawned task's does, then reaches the caller.
func (rt *Runtime) Main(fn func(e *Env, self *Task)) {
	defer func() {
		if r := recover(); r != nil {
			rt.fail(0, r)
			panic(r)
		}
	}()
	fn(rt.envs[0], &Task{node: 0})
}

// Spawn starts fn as a task on the next node round-robin (see newTask)
// and returns a joinable handle, as SpawnOn does.
func (t *TaskMgr) Spawn(fn func(e *Env, self *Task) int64) *Task {
	t.e.charge(ModTask)
	return t.start(t.e.rt.newTask(-1), fn)
}

// SpawnOn starts fn as a task on the given node and returns a joinable
// handle. The spawn request travels as a forwarded call over the
// cluster-control messaging layer: the caller pays the send cost and the
// task begins no earlier than the request's arrival. The task's execution
// charges the target node's clock; in Threaded mode, substrate access from
// concurrent same-node tasks is serialized (time-sharing one CPU).
func (t *TaskMgr) SpawnOn(node int, fn func(e *Env, self *Task) int64) (*Task, error) {
	t.e.charge(ModTask)
	if node < 0 || node >= t.e.N() {
		return nil, fmt.Errorf("core: spawn on invalid node %d", node)
	}
	return t.start(t.e.rt.newTask(node), fn), nil
}

// start forwards task to its node and runs fn there. A panic in fn aborts
// the runtime and is kept for Join.
func (t *TaskMgr) start(task *Task, fn func(e *Env, self *Task) int64) *Task {
	rt, node := t.e.rt, task.node
	target := rt.envs[node]
	task.done = t.e.Sync.NewEvent()

	// Forwarding cost: one message to the target node.
	caller := rt.sub.Clock(t.e.id)
	var startAt vclock.Time
	if node == t.e.id {
		caller.Advance(500) // local dispatch
		startAt = caller.Now()
	} else {
		link := rt.msgs.Link()
		caller.AdvanceCat(vclock.CatNetwork, link.SendSWNs)
		startAt = caller.Now() + vclock.Time(link.LatencyNs) + vclock.Time(link.RecvSWNs)
	}

	var res int64
	rt.goNode(node, task.num, func() {
		rt.sub.Clock(node).AdvanceToCat(vclock.CatNetwork, startAt)
		res = fn(target, task)
	}, func(failure any) {
		task.mu.Lock()
		task.result, task.failure = res, failure
		task.mu.Unlock()
		target.Sync.Signal(task.done)
	})
	return task
}

// Join blocks until the task completes, reconciling the joiner's clock
// with the task's completion time, and returns its exit value. If the
// task panicked, Join re-raises the panic.
func (t *TaskMgr) Join(task *Task) int64 {
	t.e.charge(ModTask)
	t.e.Sync.Wait(task.done)
	task.mu.Lock()
	defer task.mu.Unlock()
	if task.failure != nil {
		panic(task.failure)
	}
	task.joined = true
	return task.result
}

// goroutineID names a goroutine goNode started: a task, or (task 0) a
// node of Run.
type goroutineID struct {
	task int64
	node int
}

func (g goroutineID) String() string {
	if g.task == 0 {
		return fmt.Sprintf("node %d", g.node)
	}
	return fmt.Sprintf("task %d on node %d", g.task, g.node)
}

// liveSet lists the goroutines goNode started that are still running.
type liveSet struct {
	mu      sync.Mutex
	running []goroutineID
	wg      sync.WaitGroup // counts running
}

func (s *liveSet) enter(g goroutineID) {
	s.mu.Lock()
	s.running = append(s.running, g)
	s.wg.Add(1)
	s.mu.Unlock()
}

func (s *liveSet) leave(g goroutineID) {
	s.mu.Lock()
	i := slices.Index(s.running, g)
	s.running[i] = s.running[len(s.running)-1]
	s.running = s.running[:len(s.running)-1]
	s.wg.Done()
	s.mu.Unlock()
}

// quiesce returns when no goroutine is running and otherwise panics
// naming those that are, or with wait, first waits for them to leave.
func (s *liveSet) quiesce(wait bool) {
	if wait {
		s.wg.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.running) == 0 {
		return
	}
	names := make([]string, len(s.running))
	for i, g := range s.running {
		names[i] = g.String()
	}
	slices.Sort(names)
	panic(fmt.Sprintf("core: Close while %s is still running: join it first", strings.Join(names, ", ")))
}
