package swdsm

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hamster/internal/memsim"
)

// A home node reads its own frames without a lock: diff handlers replace a
// frame's buffer instead of writing it, and the node hands replaced
// buffers back only at its next access or generation bump. The hammers
// below run the home's lock-free reads against peers whose releases keep
// replacing the same frames; run them under -race, where a buffer
// recycled under a reader or written in place shows as a race, and
// without it, where it shows as a value nobody stored.

const homeRounds = 5_000

// homePages allocates X and Y on separate pages homed at node 0.
func homePages(t *testing.T, d *DSM) (x, y memsim.Addr) {
	t.Helper()
	r, err := d.Alloc(2*memsim.PageSize, "xy", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r.Base, r.Base + memsim.PageSize
}

// TestHomeHammerMessagePassing: node 1 stores i into X and into two words
// of Y under a lock and releases, so the home applies X's diff before Y's;
// node 2 counts in a third word of X under another lock, so two handlers
// replace X's frame concurrently. Node 0, the home, loads Y's words in one
// block and then X's, never synchronizing. It must never see a new Y with
// an older X, Y's two words apart (one diff is one replacement), a word
// go back, or a value nobody stored.
func TestHomeHammerMessagePassing(t *testing.T) {
	d := newDSM(t, 3)
	x, y := homePages(t, d)
	z := x + 8
	var wg sync.WaitGroup
	var done atomic.Int32
	writer := func(node, l int, store func(i int64)) {
		defer wg.Done()
		defer done.Add(1)
		for i := int64(1); i <= homeRounds; i++ {
			d.Acquire(node, l)
			store(i)
			d.Release(node, l)
		}
	}
	wg.Add(3)
	go writer(1, d.NewLock(), func(i int64) {
		d.WriteI64(1, x, i)
		d.WriteI64Block(1, y, []int64{i, i})
	})
	go writer(2, d.NewLock(), func(i int64) { d.WriteI64(2, z, i) })
	go func() {
		defer wg.Done()
		var lastX, lastY, lastZ int64
		ys := make([]int64, 2)
		for {
			last := done.Load() == 2 // loads after this see every store
			d.ReadI64Block(0, y, ys)
			gotX, gotZ := d.ReadI64(0, x), d.ReadI64(0, z)
			switch {
			case ys[0] != ys[1]:
				t.Errorf("Y's words read %d and %d: a diff landed in the buffer being read", ys[0], ys[1])
			case gotX < ys[0]:
				t.Errorf("read Y=%d then X=%d: X's diff was applied first", ys[0], gotX)
			case gotX < lastX || ys[0] < lastY || gotZ < lastZ:
				t.Errorf("a word went back: X %d→%d, Y %d→%d, Z %d→%d", lastX, gotX, lastY, ys[0], lastZ, gotZ)
			case gotX > homeRounds || gotZ > homeRounds:
				t.Errorf("read X=%d Z=%d: nobody stored that", gotX, gotZ)
			}
			if t.Failed() {
				return
			}
			lastX, lastY, lastZ = gotX, ys[0], gotZ
			if last {
				if gotX != homeRounds || ys[0] != homeRounds || gotZ != homeRounds {
					t.Errorf("after the last release the home reads X=%d Y=%d Z=%d, want %d", gotX, ys[0], gotZ, homeRounds)
				}
				return
			}
		}
	}()
	wg.Wait()
}

// TestHomeHammerStoreBuffering: node 0, the home, stores X0=i in its own
// frame and loads Y; node 1 stores Y=j and X1=j (X1 shares X0's page),
// releases, fences and loads X0. If round i of the home missed Y=j, round
// j of node 1 fetched X0 later and must see X0>=i. Every home round also
// reads X0 back while node 1's diffs replace its frame: a replacement must
// carry the home's own stores.
func TestHomeHammerStoreBuffering(t *testing.T) {
	d := newDSM(t, 2)
	x, y := homePages(t, d)
	x1 := x + 8
	sawX := make([]int64, homeRounds+1) // sawX[j]: node 1's load in round j
	var sawY []int64                    // sawY[i]: the home's load in round i
	var wg sync.WaitGroup
	var done atomic.Bool
	l := d.NewLock()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for j := int64(1); j <= homeRounds; j++ {
			d.Acquire(1, l)
			d.WriteI64(1, y, j)
			d.WriteI64(1, x1, j)
			d.Release(1, l)
			d.Fence(1)
			sawX[j] = d.ReadI64(1, x)
		}
	}()
	go func() {
		defer wg.Done()
		sawY = append(sawY, 0)
		for i := int64(1); !done.Load(); i++ {
			d.WriteI64(0, x, i)
			got := d.ReadI64(0, y)
			if got < sawY[i-1] || got > homeRounds {
				t.Errorf("home round %d reads Y=%d after %d", i, got, sawY[i-1])
				return
			}
			sawY = append(sawY, got)
			for k := 0; k < 4; k++ {
				if own := d.ReadI64(0, x); own != i {
					t.Errorf("home stored X0=%d and read back %d", i, own)
					return
				}
			}
		}
	}()
	wg.Wait()
	for i := 1; i < len(sawY); i++ {
		// Y's values only grow, so the first store the home missed in
		// round i is sawY[i]+1; node 1's later rounds load X0 no earlier.
		if j := sawY[i] + 1; j <= homeRounds && sawX[j] < int64(i) {
			t.Fatalf("home round %d stored X0 then read Y=%d; round %d of node 1 stored Y then read X0=%d: both loads passed both stores",
				i, sawY[i], j, sawX[j])
		}
	}
	if got := d.ReadI64(0, x1); got != homeRounds {
		t.Fatalf("home reads X1=%d after node 1's last release, want %d", got, homeRounds)
	}
}

// TestHomeReadTakesNoFrameLock: with a home frame's mutex held elsewhere,
// the home's word, block and byte-span reads of that page still return;
// a write waits for the mutex.
func TestHomeReadTakesNoFrameLock(t *testing.T) {
	d := newDSM(t, 2)
	r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteF64(0, r.Base, 1.5)
	hp := d.nodes[0].home.Frame(memsim.PageOf(r.Base))
	hp.Mu.Lock()
	read := make(chan [3]float64)
	go func() {
		block := make([]float64, 1)
		d.ReadF64Block(0, r.Base, block)
		span := make([]byte, 8)
		d.ReadBytes(0, r.Base, span)
		read <- [3]float64{d.ReadF64(0, r.Base), block[0], math.Float64frombits(binary.LittleEndian.Uint64(span))}
	}()
	select {
	case got := <-read:
		if got != [3]float64{1.5, 1.5, 1.5} {
			t.Errorf("word, block and span reads = %v, want 1.5 each", got)
		}
	case <-time.After(time.Second):
		hp.Mu.Unlock()
		t.Fatal("a home read waited for the frame's mutex")
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		d.WriteF64(0, r.Base, 2)
	}()
	select {
	case <-wrote:
		t.Error("a home write finished while the frame's mutex was held")
	case <-time.After(50 * time.Millisecond):
	}
	hp.Mu.Unlock()
	<-wrote
	if got := d.ReadF64(0, r.Base); got != 2 {
		t.Fatalf("read after the write = %v, want 2", got)
	}
}
