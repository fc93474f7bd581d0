package amsg

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// A network that duplicates requests must never re-execute a
// non-idempotent handler: the duplicate-suppression table replays the
// stored response instead.
func TestDuplicateNeverDoubleExecutes(t *testing.T) {
	l, _ := testLayer(2)
	l.Network().SetFaults(simnet.FaultPlan{DuplicateProb: 0.5, Seed: 11})
	const kind Kind = 1
	var mu sync.Mutex
	executions := 0
	l.Register(1, kind, func(_ NodeID, req []byte) ([]byte, vclock.Duration) {
		mu.Lock()
		executions++
		mu.Unlock()
		return req, 0
	})
	const calls = 200
	for i := 0; i < calls; i++ {
		resp := l.Call(0, 1, kind, []byte{byte(i)})
		if len(resp) != 1 || resp[0] != byte(i) {
			t.Fatalf("call %d: resp %v", i, resp)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != calls {
		t.Fatalf("handler executed %d times for %d calls", executions, calls)
	}
	_, suppressed := l.Stats(1).Faults()
	if suppressed == 0 {
		t.Fatal("DuplicateProb 0.5 never produced a suppressed duplicate")
	}
}

// Closing the network must wake a caller blocked in the retry loop with
// errClosed — it cannot be left waiting for an ack that will never come.
func TestCloseWakesBlockedCall(t *testing.T) {
	l, _ := testLayer(2)
	l.Network().SetFaults(simnet.FaultPlan{DropProb: 1, Seed: 1})
	l.policy = l.fitPolicy(retryPolicy{MaxAttempts: 1 << 30})
	const kind Kind = 2
	l.Register(1, kind, func(NodeID, []byte) ([]byte, vclock.Duration) { return nil, 0 })

	errc := make(chan error, 1)
	go func() {
		_, err := l.CallErr(0, 1, kind, nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the retry loop spin
	l.Network().Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errClosed) {
			t.Fatalf("err = %v, want errClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked caller")
	}
}

// Retransmission under random loss: the handler still runs exactly once
// per logical call, responses stay correct, and the whole schedule —
// including every backoff wait — replays bit-identically for the seed.
func TestRetryExactlyOnceAndDeterministic(t *testing.T) {
	const calls = 80
	run := func() (callerT vclock.Time, executions int, retries uint64) {
		l, clocks := testLayer(2)
		l.Network().SetFaults(simnet.FaultPlan{DropProb: 0.25, Seed: 21})
		// A generous budget: at 25% loss a default 8-attempt budget has
		// about a 0.03% chance per call of running dry, which over many
		// calls is a real flake; 20 attempts pushes that below 1e-7.
		l.policy = l.fitPolicy(retryPolicy{MaxAttempts: 20})
		const kind Kind = 3
		l.Register(1, kind, func(_ NodeID, req []byte) ([]byte, vclock.Duration) {
			executions++
			return append([]byte("re:"), req...), 10
		})
		for i := 0; i < calls; i++ {
			resp := l.Call(0, 1, kind, []byte{byte(i)})
			if string(resp) != "re:"+string([]byte{byte(i)}) {
				t.Fatalf("call %d: resp %q", i, resp)
			}
		}
		retries, _ = l.Stats(0).Faults()
		return clocks[0].Now(), executions, retries
	}
	t1, exec1, retries1 := run()
	t2, exec2, retries2 := run()
	if exec1 != calls || exec2 != calls {
		t.Fatalf("handler executed %d/%d times for %d calls", exec1, exec2, calls)
	}
	if retries1 == 0 {
		t.Fatal("DropProb 0.35 never forced a retry")
	}
	if t1 != t2 || retries1 != retries2 {
		t.Fatalf("same seed: clocks %d/%d, retries %d/%d", t1, t2, retries1, retries2)
	}
}

// Exhausting the retry budget yields UnreachableError naming the target,
// the kind, and the attempt count.
func TestUnreachableAfterMaxAttempts(t *testing.T) {
	l, _ := testLayer(2)
	l.Network().SetFaults(simnet.FaultPlan{DropProb: 1, Seed: 1})
	const kind Kind = 4
	executed := false
	l.Register(1, kind, func(NodeID, []byte) ([]byte, vclock.Duration) {
		executed = true
		return nil, 0
	})
	_, err := l.CallErr(0, 1, kind, nil)
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnreachableError", err)
	}
	if ue.Node != 1 || ue.Kind != kind || ue.Attempts != defaultMaxAttempts {
		t.Fatalf("UnreachableError = %+v", ue)
	}
	if ue.Executed || executed {
		t.Fatal("DropProb 1 delivered a request")
	}
}

// A peer marked down by the health monitor is fenced: calls fail
// immediately, burning no attempts and no virtual time.
func TestMarkDownFailsFast(t *testing.T) {
	l, clocks := testLayer(2)
	const kind Kind = 5
	l.Register(1, kind, func(NodeID, []byte) ([]byte, vclock.Duration) { return nil, 0 })
	l.MarkDown(1)
	_, err := l.CallErr(0, 1, kind, nil)
	var ue *UnreachableError
	if !errors.As(err, &ue) || ue.Attempts != 0 {
		t.Fatalf("err = %v, want pre-send UnreachableError", err)
	}
	if got := clocks[0].Now(); got != 0 {
		t.Fatalf("fenced call charged %d ns", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Call to a down node must panic")
		}
	}()
	l.Call(0, 1, kind, nil)
}

// Timeouts and retries surface as perfmon events attributed to the
// caller, with the attempt ordinal in Arg2.
func TestRetryEventsRecorded(t *testing.T) {
	l, _ := testLayer(2)
	rec := perfmon.New(2, 0)
	l.SetRecorder(rec)
	rec.Enable()
	l.Network().SetFaults(simnet.FaultPlan{DropProb: 1, Seed: 1})
	l.policy = l.fitPolicy(retryPolicy{MaxAttempts: 3})
	const kind Kind = 6
	l.Register(1, kind, func(NodeID, []byte) ([]byte, vclock.Duration) { return nil, 0 })
	if _, err := l.CallErr(0, 1, kind, nil); err == nil {
		t.Fatal("expected failure under DropProb 1")
	}
	counts := rec.KindCount(0)
	if counts[perfmon.EvTimeout] != 3 {
		t.Fatalf("EvTimeout count = %d, want 3", counts[perfmon.EvTimeout])
	}
	if counts[perfmon.EvRetry] != 2 {
		t.Fatalf("EvRetry count = %d, want 2 (last attempt does not retry)", counts[perfmon.EvRetry])
	}
}

// A plan that activates the reliability protocol but never fires (a
// crash far in the future) must charge exactly what the fault-free path
// charges: the request/ack machinery is cost-invisible on clean rounds.
func TestFaultPathCostIdentity(t *testing.T) {
	const kind Kind = 7
	handler := func(_ NodeID, req []byte) ([]byte, vclock.Duration) {
		return append([]byte("re:"), req...), 25
	}
	run := func(plan bool) (caller, stolen vclock.Time) {
		l, clocks := testLayer(2)
		if plan {
			l.Network().SetFaults(simnet.FaultPlan{
				NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: 1 << 60}},
				Seed:       99,
			})
			if !l.Network().CallFaultsActive() {
				t.Fatal("plan should route calls through the reliability protocol")
			}
		}
		l.Register(1, kind, handler)
		if resp := l.Call(0, 1, kind, []byte("ping")); string(resp) != "re:ping" {
			t.Fatalf("resp = %q", resp)
		}
		caller = clocks[0].Now()
		stolen = vclock.Time(clocks[1].Breakdown().Stolen)
		return
	}
	c0, s0 := run(false)
	c1, s1 := run(true)
	if c0 != c1 || s0 != s1 {
		t.Fatalf("reliable path diverged from fault-free costs: call %d vs %d, stolen %d vs %d", c0, c1, s0, s1)
	}
}
