package shmem

import (
	"fmt"
	"strings"
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

func TestSymmetricHeapInstancesAreSeparate(t *testing.T) {
	s := boot(t, hamster.HybridDSM, 3)
	s.Run(func(pe *PE) {
		x := pe.Malloc(64)
		// Everyone writes its own instance.
		pe.PutOneF64(x, float64(pe.MyPE()+1), pe.MyPE())
		pe.BarrierAll()
		// Each PE's instance holds its own value.
		for target := 0; target < pe.NPEs(); target++ {
			if got := pe.GetOneF64(x, target); got != float64(target+1) {
				panic("symmetric instances aliased")
			}
		}
		pe.BarrierAll()
	})
}

func TestOneSidedPutVisibleAfterBarrier(t *testing.T) {
	for _, kind := range []hamster.PlatformKind{hamster.SMP, hamster.HybridDSM, hamster.SWDSM} {
		t.Run(kind.String(), func(t *testing.T) {
			s := boot(t, kind, 2)
			s.Run(func(pe *PE) {
				buf := pe.Malloc(256)
				if pe.MyPE() == 0 {
					src := []float64{1.5, 2.5, 3.5}
					pe.PutF64(buf, src, 1) // one-sided: PE 1 does nothing
				}
				pe.BarrierAll()
				if pe.MyPE() == 1 {
					dst := make([]float64, 3)
					pe.GetF64(dst, buf, 1) // read own instance
					if dst[0] != 1.5 || dst[1] != 2.5 || dst[2] != 3.5 {
						panic("put data lost")
					}
				}
				pe.BarrierAll()
			})
		})
	}
}

func TestPutGetI64AndOffset(t *testing.T) {
	s := boot(t, hamster.HybridDSM, 2)
	s.Run(func(pe *PE) {
		x := pe.Malloc(128)
		if pe.MyPE() == 0 {
			pe.PutI64(x.Index(3), -42, 1)
		}
		pe.BarrierAll()
		if pe.MyPE() == 1 {
			if pe.GetI64(x.Index(3), 1) != -42 {
				panic("indexed put/get failed")
			}
		}
		pe.BarrierAll()
	})
}

func TestReductionsAndBroadcast(t *testing.T) {
	s := boot(t, hamster.SWDSM, 4)
	s.Run(func(pe *PE) {
		if got := pe.SumToAllF64(float64(pe.MyPE() + 1)); got != 10 {
			panic("sum_to_all wrong")
		}
		if got := pe.MaxToAllF64(float64(pe.MyPE())); got != 3 {
			panic("max_to_all wrong")
		}
		if got := pe.MinToAllF64(float64(pe.MyPE())); got != 0 {
			panic("min_to_all wrong")
		}
		if got := pe.BroadcastF64(1, float64(pe.MyPE()*100)); got != 100 {
			panic("broadcast wrong")
		}
	})
}

func TestAtomics(t *testing.T) {
	s := boot(t, hamster.HybridDSM, 4)
	s.Run(func(pe *PE) {
		ctr := pe.Malloc(8)
		pe.BarrierAll()
		// Everyone atomically increments PE 0's instance.
		for i := 0; i < 5; i++ {
			pe.AtomicAddI64(ctr, 1, 0)
		}
		pe.BarrierAll()
		if pe.MyPE() == 0 {
			// Fetch-add returns the prior value.
			old := pe.AtomicFetchAddI64(ctr, 0, 0)
			if old != 20 {
				panic("atomic adds lost")
			}
		}
		pe.BarrierAll()
	})
}

func TestLocks(t *testing.T) {
	s := boot(t, hamster.SWDSM, 3)
	s.Run(func(pe *PE) {
		acc := pe.Malloc(8)
		pe.BarrierAll()
		for i := 0; i < 4; i++ {
			pe.SetLock(7)
			v := pe.GetI64(acc, 0)
			pe.PutI64(acc, v+1, 0)
			pe.ClearLock(7)
		}
		pe.BarrierAll()
		if pe.MyPE() == 0 {
			pe.SetLock(7)
			if pe.GetI64(acc, 0) != 12 {
				panic("lock counter wrong")
			}
			pe.ClearLock(7)
		}
		pe.BarrierAll()
	})
}

func TestTestLock(t *testing.T) {
	s := boot(t, hamster.SMP, 1)
	s.Run(func(pe *PE) {
		if !pe.TestLock(3) {
			panic("test_lock on free lock failed")
		}
		if pe.TestLock(3) {
			panic("test_lock on held lock succeeded")
		}
		pe.ClearLock(3)
	})
}

func TestWaitUntil(t *testing.T) {
	s := boot(t, hamster.HybridDSM, 2)
	s.Run(func(pe *PE) {
		flag := pe.Malloc(8)
		pe.BarrierAll()
		if pe.MyPE() == 0 {
			pe.Compute(100000)
			pe.PutI64(flag, 1, 1) // set PE 1's flag
			pe.Quiet()
		} else {
			pe.WaitUntilI64(flag, CmpEQ, 1)
		}
		pe.BarrierAll()
	})
}

func TestQuietAndFence(t *testing.T) {
	s := boot(t, hamster.HybridDSM, 2)
	s.Run(func(pe *PE) {
		x := pe.Malloc(8)
		if pe.MyPE() == 0 {
			pe.PutOneF64(x, 3.25, 1)
			pe.Fence()
			pe.Quiet()
		}
		pe.BarrierAll()
		if pe.MyPE() == 1 && pe.GetOneF64(x, 1) != 3.25 {
			panic("put lost after quiet")
		}
		pe.BarrierAll()
	})
}

func TestFreeCollective(t *testing.T) {
	s := boot(t, hamster.SWDSM, 2)
	s.Run(func(pe *PE) {
		x := pe.Malloc(64)
		pe.Free(x)
	})
}

// TestFreeTwicePanics: the second shmem_free of one allocation finds no
// region; PE 0 panics, and Run re-raises it, instead of returning as if
// the region had been freed.
func TestFreeTwicePanics(t *testing.T) {
	s := boot(t, hamster.SWDSM, 2)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "shmem_free of an unknown or freed allocation") {
			t.Fatalf("second Free raised %v, want the unknown-allocation panic", r)
		}
	}()
	s.Run(func(pe *PE) {
		x := pe.Malloc(64)
		pe.Free(x)
		pe.Free(x)
	})
}

func TestOutOfRangeOffsetPanics(t *testing.T) {
	s := boot(t, hamster.SMP, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-instance offset")
		}
	}()
	s.Run(func(pe *PE) {
		x := pe.Malloc(8)
		pe.GetOneF64(x.Offset(hamster.PageSize+8), 0)
	})
}
