package core

import (
	"fmt"
	"sync"

	"hamster/internal/vclock"
)

// TaskMgr is the Task Management module (§4.2). It deliberately does not
// define a thread API of its own — that would impose semantics on the
// models — but provides the mechanisms thread models are built from:
// node-targeted task spawning (the forwarding primitive of §5.2) and
// joinable handles. Thread models keep platform-native semantics by
// layering their own call signatures over these services.
type TaskMgr struct {
	e *Env
}

// Task is a joinable spawned task.
type Task struct {
	id     uint64
	node   int
	done   *Event
	result int64 // word-sized exit value (pthread-style return/exit codes)
	mu     sync.Mutex
}

// Node returns the node the task runs on.
func (t *Task) Node() int { return t.node }

// exitValue returns the task's exit value; valid after Join.
func (t *Task) exitValue() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result
}

var taskSeq struct {
	mu sync.Mutex
	n  uint64
}

// SpawnOn starts fn as a task on the given node and returns a joinable
// handle. The spawn request travels as a forwarded call over the
// cluster-control messaging layer: the caller pays the send cost and the
// task begins no earlier than the request's arrival. The task's execution
// charges the target node's clock; in Threaded mode, substrate access from
// concurrent same-node tasks is serialized (time-sharing one CPU).
func (t *TaskMgr) SpawnOn(node int, fn func(e *Env) int64) (*Task, error) {
	t.e.charge(ModTask)
	rt := t.e.rt
	if node < 0 || node >= rt.sub.Nodes() {
		return nil, fmt.Errorf("core: spawn on invalid node %d", node)
	}

	taskSeq.mu.Lock()
	taskSeq.n++
	id := taskSeq.n
	taskSeq.mu.Unlock()

	target := rt.envs[node]
	task := &Task{id: id, node: node}
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

	go func() {
		rt.sub.Clock(node).AdvanceToCat(vclock.CatNetwork, startAt)
		res := fn(target)
		task.mu.Lock()
		task.result = res
		task.mu.Unlock()
		target.Sync.Signal(task.done)
	}()
	return task, nil
}

// Join blocks until the task completes, reconciling the joiner's clock
// with the task's completion time.
func (t *TaskMgr) Join(task *Task) int64 {
	t.e.charge(ModTask)
	t.e.Sync.Wait(task.done)
	return task.exitValue()
}
