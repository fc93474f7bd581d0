package pthreads

import (
	"sync/atomic"
	"testing"

	"hamster"
)

func boot(t testing.TB, kind hamster.PlatformKind, nodes int) *System {
	t.Helper()
	s, err := Boot(hamster.Config{Platform: kind, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestCreateJoinAcrossNodes(t *testing.T) {
	s := boot(t, hamster.SWDSM, 3)
	s.Main(func(pt *PT) {
		var nodes [3]atomic.Bool
		nodes[pt.Node()].Store(true)
		var ths []*Thread
		for i := 0; i < 2; i++ {
			th, err := pt.Create(func(w *PT) int64 {
				nodes[w.Node()].Store(true)
				return int64(w.Self() * 10)
			})
			if err != nil {
				panic(err)
			}
			ths = append(ths, th)
		}
		for _, th := range ths {
			code := pt.Join(th)
			if code != th.TID()*10 {
				panic("exit code mismatch")
			}
		}
		for i := range nodes {
			if !nodes[i].Load() {
				panic("round-robin placement missed a node")
			}
		}
	})
}

func TestCreateOnExplicitNode(t *testing.T) {
	s := boot(t, hamster.SMP, 4)
	s.Main(func(pt *PT) {
		th, err := pt.CreateOn(3, func(w *PT) int64 { return int64(w.Node()) })
		if err != nil {
			panic(err)
		}
		if pt.Join(th) != 3 {
			panic("thread did not run on node 3")
		}
	})
}

func TestMutexProtectsSharedCounter(t *testing.T) {
	for _, kind := range []hamster.PlatformKind{hamster.SMP, hamster.SWDSM} {
		t.Run(kind.String(), func(t *testing.T) {
			s := boot(t, kind, 2)
			s.Main(func(pt *PT) {
				addr := pt.Malloc(hamster.PageSize)
				m := pt.MutexInit()
				work := func(w *PT) int64 {
					for i := 0; i < 20; i++ {
						w.MutexLock(m)
						w.WriteI64(addr, w.ReadI64(addr)+1)
						w.MutexUnlock(m)
					}
					return 0
				}
				th1, _ := pt.Create(work)
				th2, _ := pt.Create(work)
				work(pt)
				pt.Join(th1)
				pt.Join(th2)
				pt.MutexLock(m)
				total := pt.ReadI64(addr)
				pt.MutexUnlock(m)
				if total != 60 {
					panic("mutex counter wrong")
				}
				pt.MutexDestroy(m)
			})
		})
	}
}

func TestMutexTryLock(t *testing.T) {
	s := boot(t, hamster.SMP, 1)
	s.Main(func(pt *PT) {
		m := pt.MutexInit()
		if !pt.MutexTryLock(m) {
			panic("trylock on free mutex failed")
		}
		if pt.MutexTryLock(m) {
			panic("trylock on held mutex succeeded")
		}
		pt.MutexUnlock(m)
	})
}

func TestCondProducerConsumer(t *testing.T) {
	s := boot(t, hamster.SWDSM, 2)
	s.Main(func(pt *PT) {
		addr := pt.Malloc(hamster.PageSize)
		m := pt.MutexInit()
		c := pt.CondInit()

		consumer, _ := pt.Create(func(w *PT) int64 {
			w.MutexLock(m)
			for w.ReadI64(addr) == 0 {
				w.CondWait(c, m)
			}
			v := w.ReadI64(addr)
			w.MutexUnlock(m)
			return v
		})

		pt.MutexLock(m)
		pt.WriteI64(addr, 99)
		pt.CondSignal(c)
		pt.MutexUnlock(m)

		if pt.Join(consumer) != 99 {
			panic("consumer saw wrong value")
		}
	})
}

func TestBarrierWait(t *testing.T) {
	s := boot(t, hamster.SMP, 2)
	s.Main(func(pt *PT) {
		const parties = 3
		b := pt.BarrierInit(parties)
		var serial atomic.Int32
		var ths []*Thread
		for i := 0; i < parties-1; i++ {
			th, _ := pt.Create(func(w *PT) int64 {
				for round := 0; round < 5; round++ {
					if w.BarrierWait(b) {
						serial.Add(1)
					}
				}
				return 0
			})
			ths = append(ths, th)
		}
		for round := 0; round < 5; round++ {
			if pt.BarrierWait(b) {
				serial.Add(1)
			}
		}
		for _, th := range ths {
			pt.Join(th)
		}
		if serial.Load() != 5 {
			panic("exactly one serial thread per round expected")
		}
	})
}

func TestOnce(t *testing.T) {
	s := boot(t, hamster.SMP, 2)
	s.Main(func(pt *PT) {
		var o Once
		var runs atomic.Int32
		fn := func() { runs.Add(1) }
		th, _ := pt.Create(func(w *PT) int64 {
			w.DoOnce(&o, fn)
			return 0
		})
		pt.DoOnce(&o, fn)
		pt.Join(th)
		if runs.Load() != 1 {
			panic("once ran more than once")
		}
	})
}

func TestSelfEqualYield(t *testing.T) {
	s := boot(t, hamster.SMP, 1)
	s.Main(func(pt *PT) {
		if pt.Self() != 0 || !pt.Equal(pt.Self(), 0) || pt.Equal(0, 1) {
			panic("identity ops broken")
		}
		pt.Yield()
		pt.Compute(10)
	})
}
