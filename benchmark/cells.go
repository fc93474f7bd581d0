package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"hamster"
	"hamster/internal/amsg"
	"hamster/internal/apps"
	"hamster/internal/checkpoint"
	"hamster/internal/consengine"
	"hamster/internal/serve"
	"hamster/internal/simnet"
	"hamster/models/jiajia"
)

// A workload is a fixed list of cells run one after another by a single
// driver goroutine; the simulator's own node goroutines are the load.
type workload struct {
	name  string
	why   string
	cells []*cell
}

// A cell is one (program, platform, size) execution through the full
// stack: boot, run, collect, close.
type cell struct {
	id string
	// group names the checksum agreement class: every cell of a group must
	// produce the same checksum, whatever the engine or platform.
	group string
	// layer is the substrate package whose counters the cell feeds.
	layer string
	// role marks the cells some metric singles out.
	role string
	// seeded cells draw their inputs from -seed, so their committed
	// reference values apply only at the reference seed.
	seeded bool
	// tol is the relative tolerance of the checksum comparison. PI and
	// WATER add per-node partial sums under a lock, so the order of the
	// additions, and with it the last bits of the sum, follows the order
	// of the lock grants; every other checksum must match bit for bit.
	tol   float64
	nodes int
	exec  func(x *exec)
}

// sameCheck compares two checksums of this cell's group.
func (c *cell) sameCheck(a, b string) bool {
	if a == b || c.tol == 0 {
		return a == b
	}
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	return errX == nil && errY == nil && math.Abs(x-y) <= c.tol*math.Abs(y)
}

// exec carries one execution of a cell: its inputs, its tracer (nil on
// untraced passes) and its outcome.
type exec struct {
	seed   uint64
	tr     *tracer
	parent int // the cell span, when traced
	out    outcome
}

// outcome is what every pass records per cell.
type outcome struct {
	check  string // checksum, rendered so that equal strings mean equal bits
	virtNs uint64 // slowest node's clock, Runtime.MaxTime
	msgs   uint64 // messages on the runtime's interconnect
	wallNs int64  // host wall of the whole cell
	err    error
	rep    *serveSummary // serve cells
	d      *detail       // traced pass only
}

// serveSummary is the part of a serve report the metrics use.
type serveSummary struct {
	ops, stalls   uint64
	p50Ns, p99Ns  uint64
	offeredPerSec float64
	achievedPerS  float64
	maxBusyNs     uint64
	recoveries    int
}

func (x *exec) span(name string, fn func()) {
	if x.tr == nil {
		fn()
		return
	}
	id := x.tr.begin(name, x.parent)
	fn()
	x.tr.end(id)
}

// onRuntime is the common shape of a cell: boot a runtime, run the
// program on it, read the results, close it.
func (x *exec) onRuntime(boot func() (*hamster.Runtime, error), run func(rt *hamster.Runtime) (string, error)) {
	var rt *hamster.Runtime
	x.span("boot", func() {
		rt, x.out.err = boot()
		if x.out.err == nil && x.tr != nil {
			rt.Perf().Enable()
		}
	})
	if x.out.err != nil {
		return
	}
	x.span("run", func() { x.out.check, x.out.err = run(rt) })
	x.span("collect", func() { x.collect(rt) })
	x.span("close", rt.Close)
}

func (x *exec) collect(rt *hamster.Runtime) {
	x.out.virtNs = uint64(rt.MaxTime())
	x.out.msgs = wireMessages(rt)
	if x.tr != nil {
		x.out.d = collectDetail(rt)
	}
}

// wireMessages counts what crossed the simulated interconnect: queued
// messages, which the network counts, and active-message calls, which
// only their layer does.
func wireMessages(rt *hamster.Runtime) uint64 {
	msgs, _ := rt.Network().TotalTraffic()
	if am := rt.AMsg(); am != nil {
		for n := 0; n < rt.Nodes(); n++ {
			calls, _, _, _ := am.Stats(amsg.NodeID(n)).Snapshot()
			msgs += calls
		}
	}
	return msgs
}

func f64Check(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// kernelCell runs one of the paper's kernels under the JiaJia model.
func kernelCell(name, size string, cfg hamster.Config, kernel apps.Kernel) *cell {
	tol := map[string]float64{"pi": 1e-12, "water": 1e-8}[name]
	plat, layer := platformName(cfg)
	id := fmt.Sprintf("%s-%s/%s/%d", name, size, plat, cfg.Nodes)
	if cfg.Topology != "" {
		id += "/" + cfg.Topology
	}
	return &cell{
		id:    id,
		group: fmt.Sprintf("%s-%s/%d", name, size, cfg.Nodes),
		layer: layer,
		tol:   tol,
		nodes: cfg.Nodes,
		exec: func(x *exec) {
			var sys *jiajia.System
			x.onRuntime(func() (*hamster.Runtime, error) {
				var err error
				if sys, err = jiajia.Boot(cfg); err != nil {
					return nil, err
				}
				return sys.Runtime(), nil
			}, func(*hamster.Runtime) (string, error) {
				res := apps.RunOnJia(sys, kernel)
				for i := range res {
					if res[i].Check != res[0].Check {
						return "", fmt.Errorf("node %d checksum %v disagrees with node 0's %v", i, res[i].Check, res[0].Check)
					}
				}
				return f64Check(res[0].Check), nil
			})
		},
	}
}

func platformName(cfg hamster.Config) (name, layer string) {
	switch cfg.Platform {
	case hamster.SMP:
		return "smp", "smp"
	case hamster.HybridDSM:
		return "hybriddsm", "hybriddsm"
	}
	if cfg.Engine == consengine.IVYName {
		return "ivy", "ivy"
	}
	return "scope", "swdsm"
}

// ringCell is a neighbour exchange on the cluster-control messaging
// layer: each round a node computes an unequal slice of work, sends one
// tagged message to its right neighbour and receives the matching one
// from its left. One sender per (receiver, tag) makes the result a pure
// function of virtual time with and without the lookahead gate.
func ringCell(nodes, rounds int, gated bool) *cell {
	mode, role := "free", roleRing
	if gated {
		mode, role = "gated", roleRingGated
	}
	cfg := hamster.Config{Platform: hamster.SWDSM, Nodes: nodes, ParallelNodes: gated}
	return &cell{
		id:    fmt.Sprintf("ring-%dx%d/%s", nodes, rounds, mode),
		group: fmt.Sprintf("ring-%dx%d", nodes, rounds),
		layer: "swdsm",
		role:  role,
		nodes: nodes,
		exec: func(x *exec) {
			x.onRuntime(func() (*hamster.Runtime, error) { return hamster.New(cfg) },
				func(rt *hamster.Runtime) (string, error) {
					sums := make([]float64, nodes)
					done := make([]bool, nodes)
					rt.Run(func(e *hamster.Env) {
						c := e.Cluster
						self := c.Self()
						var sum float64
						for r := 0; r < rounds; r++ {
							e.Compute(uint64(64 * (self + 1)))
							// Send does not copy: the payload must stay
							// untouched while the message lives.
							buf := make([]byte, 8)
							binary.LittleEndian.PutUint64(buf, uint64(self)<<32|uint64(r))
							c.Send((self+1)%nodes, uint32(r), buf)
							payload, from, ok := c.Recv(uint32(r))
							if !ok {
								return
							}
							v := binary.LittleEndian.Uint64(payload)
							sum += float64(v>>32) + float64(uint32(v))*1e-3 + float64(from)*1e-6
						}
						sums[self], done[self] = sum, true
					})
					var total float64
					for i, ok := range done {
						if !ok {
							return "", fmt.Errorf("node %d left the ring early", i)
						}
						total += sums[i]
					}
					return f64Check(total), nil
				})
		},
	}
}

// serveSeed derives the generator seed every serve cell of a run shares,
// so that cells differ only along their declared axes and their
// checksums can be compared across platforms.
func serveSeed(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 + 1009 }

// serveName names a serve cell by everything that shapes its op stream.
func serveName(tag string, scfg serve.Config) string {
	return fmt.Sprintf("%s-%s-%dw", scfg.Workload, tag, scfg.Windows)
}

func serveCheck(sum uint64) string { return fmt.Sprintf("%#016x", sum) }

// serveCell runs one serve workload through the core services. A
// checkpointing cluster gets a fresh sink per execution.
func serveCell(tag string, hcfg hamster.Config, scfg serve.Config) *cell {
	plat, layer := platformName(hcfg)
	name := serveName(tag, scfg)
	id, role := fmt.Sprintf("%s/%s/%d", name, plat, hcfg.Nodes), ""
	switch {
	case hcfg.CheckpointEvery > 0:
		id, role = id+"/ckpt", roleTwin
	case tag == roleSaturating:
		role = roleSaturating
	}
	return &cell{
		id:     id,
		group:  fmt.Sprintf("%s/%d", name, hcfg.Nodes),
		layer:  layer,
		role:   role,
		seeded: true,
		nodes:  hcfg.Nodes,
		exec: func(x *exec) {
			scfg, hcfg := scfg, hcfg
			scfg.Seed = serveSeed(x.seed)
			var sink *countingSink
			if hcfg.CheckpointEvery > 0 {
				sink = newCountingSink()
				hcfg.CheckpointSink = sink
			}
			defer sink.report(&x.out)
			x.onRuntime(func() (*hamster.Runtime, error) { return hamster.New(hcfg) },
				func(rt *hamster.Runtime) (string, error) {
					rep, err := serve.RunOnRuntime(scfg, rt)
					if err != nil {
						return "", err
					}
					x.out.rep = &serveSummary{
						ops: rep.Applied, stalls: rep.Stalled,
						p50Ns: rep.P50Ns, p99Ns: rep.P99Ns,
						offeredPerSec: rep.OfferedPerSec, achievedPerS: rep.AchievedPerSec,
						maxBusyNs: rep.MaxBusyNs,
					}
					return serveCheck(rep.Checksum), nil
				})
		},
	}
}

// countingSink counts what the checkpoint coordinator seals; the
// recovered runtime's own coordinator only knows its last attempt.
type countingSink struct {
	checkpoint.Sink
	captures int
	bytes    uint64
}

func (s *countingSink) Append(sn *checkpoint.Snapshot) error {
	s.captures++
	s.bytes += sn.Bytes()
	return s.Sink.Append(sn)
}

// report books the counts into a traced outcome; a cell without
// checkpointing has a nil sink and nothing to book.
func (s *countingSink) report(o *outcome) {
	if s != nil && o.d != nil {
		o.d.ckptCaptures, o.d.ckptBytes = s.captures, s.bytes
	}
}

func newCountingSink() *countingSink { return &countingSink{Sink: checkpoint.NewMemorySink(64)} }

// checkpointed is the faulted cell's cluster. Its unfaulted twin boots
// the same one and runs the same traffic: the twin's checksum is the one
// the faulted cell must land on, and its wall is the base of
// cluster.recover_host_ms.
func checkpointed(nodes int) hamster.Config {
	return hamster.Config{Platform: hamster.SWDSM, Nodes: nodes, CheckpointEvery: 4}
}

// faultedCell reruns the twin's traffic on a wire that drops 5 % of all
// transmissions and loses node 1 at 1.5 virtual ms — several rounds in —
// recovering through the cluster orchestrator.
func faultedCell(tag string, nodes int, scfg serve.Config) *cell {
	name := serveName(tag, scfg)
	return &cell{
		id:     fmt.Sprintf("%s/scope/%d/faulted", name, nodes),
		group:  fmt.Sprintf("%s/%d", name, nodes),
		layer:  "swdsm",
		role:   roleFaulted,
		seeded: true,
		nodes:  nodes,
		exec: func(x *exec) {
			scfg := scfg.WithDefaults(nodes)
			scfg.Seed = serveSeed(x.seed)
			if x.out.err = scfg.Validate(nodes); x.out.err != nil {
				return
			}
			plan := simnet.FaultPlan{
				NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: 1_500_000}},
				DropProb:   0.05,
				Recover:    true,
				Seed:       int64(x.seed),
			}
			sink := newCountingSink()
			hcfg := checkpointed(nodes)
			hcfg.CheckpointSink = sink
			rows := make([]serve.NodeResult, nodes)
			var rt *hamster.Runtime
			var recoveries int
			// Boot happens inside the orchestrator, once per attempt, so
			// the whole supervised run is one span.
			x.span("run", func() {
				_, rt, recoveries, x.out.err = apps.RunRecoverable(hcfg, plan, serve.Kernel(scfg, rows))
			})
			if x.out.err != nil {
				return
			}
			x.span("collect", func() {
				for i := range rows {
					if rows[i].Checksum != rows[0].Checksum {
						x.out.err = fmt.Errorf("node %d checksum %#x disagrees with node 0's %#x", i, rows[i].Checksum, rows[0].Checksum)
					}
				}
				if recoveries < 1 {
					x.out.err = fmt.Errorf("planned crash needed no recovery")
				}
				x.out.check = serveCheck(rows[0].Checksum)
				x.out.rep = &serveSummary{ops: rows[0].TotalApplied, stalls: rows[0].TotalStalled, recoveries: recoveries}
				x.collect(rt)
				sink.report(&x.out)
			})
			x.span("close", rt.Close)
		},
	}
}

// sizes are the working sets. The full sizes were chosen so that one pass
// of each workload takes 0.2–1.5 s on a 2-core host; the short sizes keep
// every code path and exist for the smoke test.
type sizes struct {
	matAccess, matWord   int
	streamN, streamIters int
	piIters              int
	sorN, sorIters       int
	luN, luScale         int
	waterMol, waterSteps int
	ringBig, ringSmall   [2]int // nodes, rounds
	serveWindows         int
	serveSessions        uint64
	satWindows           int
	satSessions          uint64
}

func fullSizes() sizes {
	return sizes{
		matAccess: 192, matWord: 128,
		streamN: 1 << 18, streamIters: 8,
		piIters: 8_000_000,
		sorN:    256, sorIters: 8,
		luN: 224, luScale: 128,
		waterMol: 288, waterSteps: 2,
		ringBig: [2]int{64, 400}, ringSmall: [2]int{8, 2000},
		serveWindows: 16, serveSessions: 200_000,
		satWindows: 32, satSessions: 2_000_000,
	}
}

func shortSizes() sizes {
	return sizes{
		matAccess: 32, matWord: 32,
		streamN: 1 << 12, streamIters: 2,
		piIters: 100_000,
		sorN:    32, sorIters: 2,
		luN: 32, luScale: 32,
		waterMol: 32, waterSteps: 1,
		ringBig: [2]int{64, 10}, ringSmall: [2]int{8, 50},
		serveWindows: 6, serveSessions: 2_000,
		satWindows: 6, satSessions: 20_000,
	}
}

func swCluster(nodes int, engine, topology string) hamster.Config {
	return hamster.Config{Platform: hamster.SWDSM, Nodes: nodes, Engine: engine, Topology: topology}
}

// workloads builds the six workloads. README.md says why each exists and
// which layer each one loads.
func workloads(sz sizes) []*workload {
	engines := []string{consengine.ScopeName, consengine.IVYName}
	matmult := func(n int) apps.Kernel { return func(m apps.Machine) apps.Result { return apps.MatMult(m, n) } }
	sor := func(opt bool) apps.Kernel {
		return func(m apps.Machine) apps.Result { return apps.SOR(m, sz.sorN, sz.sorIters, opt) }
	}
	lu := func(n int) apps.Kernel { return func(m apps.Machine) apps.Result { return apps.LU(m, n) } }
	stream := func(m apps.Machine) apps.Result { return apps.Stream(m, sz.streamN, sz.streamIters, hamster.Block) }
	pi := func(m apps.Machine) apps.Result { return apps.PI(m, sz.piIters) }
	water := func(m apps.Machine) apps.Result { return apps.Water(m, sz.waterMol, sz.waterSteps) }
	sorSize := fmt.Sprintf("%dx%d", sz.sorN, sz.sorIters)

	access := &workload{name: "dsm-access", why: "millions of word accesses per hundred faults on the software DSM: the accessor fast path, with the page protocol idle"}
	protocol := &workload{name: "dsm-protocol", why: "faults, twins, diffs, invalidations and barriers on pages that scope and ivy write in opposite ways"}
	for _, eng := range engines {
		cfg := swCluster(4, eng, "")
		access.cells = append(access.cells,
			kernelCell("matmult", strconv.Itoa(sz.matAccess), cfg, matmult(sz.matAccess)),
			kernelCell("stream", fmt.Sprintf("%dx%d", sz.streamN, sz.streamIters), cfg, stream),
			kernelCell("pi", strconv.Itoa(sz.piIters), cfg, pi))
		protocol.cells = append(protocol.cells,
			kernelCell("sor", sorSize, cfg, sor(false)),
			kernelCell("sor-opt", sorSize, cfg, sor(true)),
			kernelCell("lu", strconv.Itoa(sz.luN), cfg, lu(sz.luN)))
	}

	word := &workload{name: "word-access", why: "no page protocol and no active messages: remote word loads and stores, posted writes, bus and cache model; the bypass for every swdsm, ivy and amsg change"}
	for _, cfg := range []hamster.Config{{Platform: hamster.HybridDSM, Nodes: 4}, {Platform: hamster.SMP, Nodes: 2}} {
		word.cells = append(word.cells,
			kernelCell("matmult", strconv.Itoa(sz.matWord), cfg, matmult(sz.matWord)),
			kernelCell("sor", sorSize, cfg, sor(false)),
			kernelCell("sor-opt", sorSize, cfg, sor(true)),
			kernelCell("lu", strconv.Itoa(sz.luN), cfg, lu(sz.luN)))
	}

	// WATER on ivy is left out: its virtual time spans 0.57–12.5 s across
	// passes of the same code (ROADMAP 1b), so no bound could hold it.
	scale := &workload{name: "sync-scale", why: "locks (single-home and distributed queues) and barriers (central and tree) at 4, 16 and 64 nodes over a small data path; the only workload that pays a 64-node boot"}
	waterSize := fmt.Sprintf("%dx%d", sz.waterMol, sz.waterSteps)
	scale.cells = append(scale.cells,
		kernelCell("water", waterSize, swCluster(4, consengine.ScopeName, ""), water),
		kernelCell("water", waterSize, swCluster(16, consengine.ScopeName, simnet.TopoRack), water),
		kernelCell("water", waterSize, swCluster(64, consengine.ScopeName, simnet.TopoRack), water))
	for _, nodes := range []int{16, 64} {
		for _, eng := range engines {
			scale.cells = append(scale.cells,
				kernelCell("lu", strconv.Itoa(sz.luScale), swCluster(nodes, eng, simnet.TopoRack), lu(sz.luScale)))
		}
	}

	ring := &workload{name: "msgring", why: "only the virtual-time engine, the network gate and cluster-control send/receive, free-running and gated; zero DSM traffic"}
	for _, shape := range [][2]int{sz.ringBig, sz.ringSmall} {
		ring.cells = append(ring.cells, ringCell(shape[0], shape[1], false), ringCell(shape[0], shape[1], true))
	}

	mix := &workload{name: "serve-mix", why: "get, put, scan, push and pull on the serve fabric under open-loop load in virtual time, with one saturating and one crashed-and-recovered cell"}
	low := func(w string, zipf float64) serve.Config {
		return serve.Config{Workload: w, Windows: sz.serveWindows, Sessions: sz.serveSessions, ZipfSkew: zipf}
	}
	hybrid16 := hamster.Config{Platform: hamster.HybridDSM, Nodes: 16}
	scope16 := swCluster(16, consengine.ScopeName, "")
	mix.cells = append(mix.cells,
		serveCell("uniform", hybrid16, low(serve.WorkloadKV, 0)),
		serveCell("zipf", hybrid16, low(serve.WorkloadKV, 0.99)),
		serveCell("zipf", scope16, low(serve.WorkloadKV, 0.99)),
		serveCell("zipf", swCluster(16, consengine.IVYName, ""), low(serve.WorkloadKV, 0.99)),
		serveCell("zipf", scope16, low(serve.WorkloadPipeline, 0.99)),
		serveCell("zipf", scope16, low(serve.WorkloadSyncLog, 0.99)),
		// A 600 ns mean gap offers more than the hottest shard's home
		// node can serve, so offered and achieved throughput part.
		serveCell(roleSaturating, scope16, serve.Config{Workload: serve.WorkloadKV, Windows: sz.satWindows,
			WindowNs: 500_000, MeanGapNs: 600, Sessions: sz.satSessions, ZipfSkew: 0.99}),
		serveCell("zipf", checkpointed(4), low(serve.WorkloadKV, 0.99)),
		faultedCell("zipf", 4, low(serve.WorkloadKV, 0.99)))

	return []*workload{access, protocol, word, scale, ring, mix}
}

// Cell roles.
const (
	roleRing       = "ring"       // ungated neighbour exchange
	roleRingGated  = "ring-gated" // the same under the lookahead gate
	roleSaturating = "saturating" // the serve cell offered more than it can serve
	roleTwin       = "twin"       // the faulted cell without its faults
	roleFaulted    = "faulted"    // the crashed-and-recovered serve cell
)

// cellTimeout is the watchdog: a cell that runs longer is a failed
// operation and the pass goes on without it.
const cellTimeout = 60 * time.Second

// runCell executes one cell under the watchdog, turning panics into
// errors.
func runCell(c *cell, seed uint64, tr *tracer) outcome {
	x := &exec{seed: seed, tr: tr}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				x.out.err = fmt.Errorf("panic: %v", r)
			}
		}()
		if tr != nil {
			x.parent = tr.beginCell(c.id)
			defer tr.end(x.parent)
		}
		c.exec(x)
	}()
	timer := time.NewTimer(cellTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		// The cell's goroutines are abandoned; every later timing of
		// this process is suspect, and the failed count says so.
		return outcome{err: fmt.Errorf("exceeded the %v watchdog", cellTimeout), wallNs: int64(time.Since(start))}
	}
	x.out.wallNs = int64(time.Since(start))
	return x.out
}
