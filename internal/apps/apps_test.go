package apps

import (
	"math"
	"testing"

	"hamster"
	"hamster/internal/hybriddsm"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
	"hamster/models/jiajia"
)

func substrates(t testing.TB, nodes int) map[string]platform.Substrate {
	t.Helper()
	sw, err := swdsm.New(swdsm.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybriddsm.New(hybriddsm.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := smp.New(smp.Config{CPUs: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close(); hy.Close(); sm.Close() })
	return map[string]platform.Substrate{"swdsm": sw, "hybrid": hy, "smp": sm}
}

func checksEqual(t *testing.T, name string, results []Result) float64 {
	t.Helper()
	for i := 1; i < len(results); i++ {
		if results[i].Check != results[0].Check {
			t.Fatalf("%s: node %d check %v != node 0 check %v",
				name, i, results[i].Check, results[0].Check)
		}
	}
	return results[0].Check
}

func TestPIConvergesEverywhere(t *testing.T) {
	for name, sub := range substrates(t, 4) {
		res := RunOnSubstrate(sub, func(m Machine) Result { return PI(m, 20000) })
		check := checksEqual(t, name, res)
		if math.Abs(check-math.Pi) > 1e-4 {
			t.Fatalf("%s: pi = %v", name, check)
		}
	}
}

func TestMatMultMatchesSerialReference(t *testing.T) {
	const n = 24
	// Serial reference of the trace of C.
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = float64((i+j)%7) / 8.0
			b[i*n+j] = float64((i*j)%5) / 4.0
		}
	}
	want := 0.0
	for i := 0; i < n; i++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += a[i*n+k] * b[k*n+i]
		}
		want += sum
	}
	for name, sub := range substrates(t, 3) {
		res := RunOnSubstrate(sub, func(m Machine) Result { return MatMult(m, n) })
		check := checksEqual(t, name, res)
		if math.Abs(check-want) > 1e-9 {
			t.Fatalf("%s: trace = %v, want %v", name, check, want)
		}
	}
}

func TestKernelsAgreeAcrossPlatformsAndPaths(t *testing.T) {
	// The strongest correctness statement in the suite: every kernel
	// produces the identical checksum on all three platforms, both on the
	// bare substrate and through the HAMSTER+JiaJia stack.
	kernels := map[string]Kernel{
		"matmult":   func(m Machine) Result { return MatMult(m, 20) },
		"pi":        func(m Machine) Result { return PI(m, 5000) },
		"sor-opt":   func(m Machine) Result { return SOR(m, 24, 3, true) },
		"sor-unopt": func(m Machine) Result { return SOR(m, 24, 3, false) },
		"lu":        func(m Machine) Result { return LU(m, 20) },
		"water":     func(m Machine) Result { return Water(m, 32, 2) },
	}
	for kname, kernel := range kernels {
		var ref float64
		first := true
		for sname, sub := range substrates(t, 2) {
			res := RunOnSubstrate(sub, kernel)
			check := checksEqual(t, sname+"/"+kname, res)
			if first {
				ref = check
				first = false
			} else if check != ref {
				t.Fatalf("%s on %s: check %v != ref %v", kname, sname, check, ref)
			}
		}
		for _, kind := range []hamster.PlatformKind{hamster.SMP, hamster.HybridDSM, hamster.SWDSM} {
			sys, err := jiajia.Boot(hamster.Config{Platform: kind, Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			res := RunOnJia(sys, kernel)
			check := checksEqual(t, "jia/"+kname, res)
			sys.Shutdown()
			if check != ref {
				t.Fatalf("%s via HAMSTER/jiajia on %v: check %v != ref %v", kname, kind, check, ref)
			}
		}
	}
}

func TestRunOnEnvPath(t *testing.T) {
	rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res := RunOnEnv(rt, func(m Machine) Result { return PI(m, 5000) })
	if math.Abs(checksEqual(t, "env/pi", res)-math.Pi) > 1e-3 {
		t.Fatal("env path broke PI")
	}
}

func TestTimingsPopulated(t *testing.T) {
	subs := substrates(t, 2)
	res := RunOnSubstrate(subs["swdsm"], func(m Machine) Result { return LU(m, 16) })
	for id, r := range res {
		if r.T.Total == 0 || r.T.Core == 0 || r.T.Bar == 0 || r.T.Init == 0 {
			t.Fatalf("node %d timings missing: %+v", id, r.T)
		}
		if r.T.Init+r.T.Core > r.T.Total {
			t.Fatalf("node %d phases exceed total: %+v", id, r.T)
		}
	}
	if MaxTotal(res) == 0 {
		t.Fatal("MaxTotal zero")
	}
	if MaxPhase(res, func(tm Timings) vdur { return tm.Bar }) == 0 {
		t.Fatal("MaxPhase zero")
	}
}

type vdur = hamster.Duration

func TestUnoptSORSuffersOnSWDSM(t *testing.T) {
	// The locality claim behind Figure 3: on the software DSM, the
	// unoptimized interleaved-row SOR must be much slower than the
	// block-partitioned one; on the hybrid DSM the gap must be smaller.
	gap := func(sub platform.Substrate) float64 {
		opt := MaxTotal(RunOnSubstrate(sub, func(m Machine) Result { return SOR(m, 64, 3, true) }))
		unopt := MaxTotal(RunOnSubstrate(sub, func(m Machine) Result { return SOR(m, 64, 3, false) }))
		return float64(unopt) / float64(opt)
	}
	subs := substrates(t, 4)
	swGap := gap(subs["swdsm"])
	hyGap := gap(subs["hybrid"])
	if swGap < 1.5 {
		t.Fatalf("SW-DSM unopt/opt ratio = %.2f, want substantial slowdown", swGap)
	}
	if hyGap >= swGap {
		t.Fatalf("hybrid gap %.2f should be below SW-DSM gap %.2f", hyGap, swGap)
	}
}

func TestLUInitExpensiveOnSWDSM(t *testing.T) {
	// §5.4: "the typical write-only initialization is very expensive in
	// Software-DSM systems" — the hybrid's posted writes must beat the
	// software DSM's twin+diff machinery on the init phase.
	subs := substrates(t, 4)
	swInit := MaxPhase(RunOnSubstrate(subs["swdsm"], func(m Machine) Result { return LU(m, 48) }),
		func(tm Timings) vdur { return tm.Init })
	hyInit := MaxPhase(RunOnSubstrate(subs["hybrid"], func(m Machine) Result { return LU(m, 48) }),
		func(tm Timings) vdur { return tm.Init })
	if float64(swInit) < 2*float64(hyInit) {
		t.Fatalf("LU init: swdsm %v vs hybrid %v — expected SW-DSM at least 2x worse", swInit, hyInit)
	}
}

func TestBlockRange(t *testing.T) {
	cases := []struct {
		n, procs, id, lo, hi int
	}{
		{10, 3, 0, 0, 4},
		{10, 3, 1, 4, 8},
		{10, 3, 2, 8, 10},
		{4, 8, 7, 4, 4}, // more procs than items: empty tail ranges
	}
	for _, c := range cases {
		lo, hi := blockRange(c.n, c.procs, c.id)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("blockRange(%d,%d,%d) = [%d,%d), want [%d,%d)",
				c.n, c.procs, c.id, lo, hi, c.lo, c.hi)
		}
	}
}

func TestAllKernelsAreDRF(t *testing.T) {
	// Every benchmark kernel, traced end to end through the HAMSTER stack
	// and verified by the formal consistency checker (§6): the whole
	// suite must be data-race-free under the synchronization it performs,
	// or its results would be undefined under relaxed consistency.
	kernels := map[string]Kernel{
		"matmult":   func(m Machine) Result { return MatMult(m, 16) },
		"pi":        func(m Machine) Result { return PI(m, 1000) },
		"sor-opt":   func(m Machine) Result { return SOR(m, 16, 2, true) },
		"sor-unopt": func(m Machine) Result { return SOR(m, 16, 2, false) },
		"lu":        func(m Machine) Result { return LU(m, 12) },
		"water":     func(m Machine) Result { return Water(m, 16, 2) },
		"stream":    func(m Machine) Result { return Stream(m, 256, 2, memsim.Block) },
		"mixed":     func(m Machine) Result { return MixedRW(m, 512, 4, 2) },
	}
	for name, kernel := range kernels {
		t.Run(name, func(t *testing.T) {
			rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rt.StartTrace()
			RunOnEnv(rt, kernel)
			rep := rt.CheckConsistency()
			if len(rep.Races) != 0 {
				t.Fatalf("kernel %s has a data race:\n%s", name, rep)
			}
			if rep.Events == 0 {
				t.Fatal("empty trace")
			}
		})
	}
}

func TestMixedRWAgreesAcrossPlatforms(t *testing.T) {
	kernel := func(m Machine) Result { return MixedRW(m, 1024, 4, 2) }
	var ref float64
	first := true
	for name, sub := range substrates(t, 2) {
		res := RunOnSubstrate(sub, kernel)
		check := checksEqual(t, name+"/mixed", res)
		if first {
			ref, first = check, false
		} else if check != ref {
			t.Fatalf("%s: mixed check %v != %v", name, check, ref)
		}
	}
}
