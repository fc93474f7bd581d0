package main

import (
	"hamster"
	"hamster/internal/amsg"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/vclock"
)

// detail is what the traced pass reads from a cell's runtime at
// quiescence, all through public functions: substrate counters, the
// clocks' category split, messaging counters and the perfmon events.
type detail struct {
	stats   platform.Stats   // summed over nodes
	cats    vclock.Breakdown // summed over nodes
	clockNs uint64           // sum of the node clocks

	amCalls, amRetries, amSuppressed, amBytes uint64
	// Queued messages are the ones the network itself counts; the
	// active-message calls above cross the same wire uncounted by it.
	queuedMsgs, queuedBytes, netDrops uint64

	events          map[string]uint64 // perfmon events by kind
	evKept, evDrops uint64
	// Modeled durations of the spanning events, in virtual ns.
	faultNs, lockNs, barrierNs, ckptNs []float64

	ckptCaptures int
	ckptBytes    uint64
}

func collectDetail(rt *hamster.Runtime) *detail {
	d := &detail{events: map[string]uint64{}}
	sub := rt.Substrate()
	for n := 0; n < rt.Nodes(); n++ {
		addStats(&d.stats, sub.NodeStats(n))
		d.cats = d.cats.Add(sub.Clock(n).Breakdown())
		d.clockNs += uint64(sub.Clock(n).Now())
		if am := rt.AMsg(); am != nil {
			calls, _, req, rsp := am.Stats(amsg.NodeID(n)).Snapshot()
			retries, suppressed := am.Stats(amsg.NodeID(n)).Faults()
			d.amCalls += calls
			d.amBytes += req + rsp
			d.amRetries += retries
			d.amSuppressed += suppressed
		}
		d.evKept += uint64(rt.Perf().Len(n))
		d.evDrops += rt.Perf().Dropped(n)
	}
	d.queuedMsgs, d.queuedBytes = rt.Network().TotalTraffic()
	d.netDrops = rt.Network().Drops()
	for _, ev := range rt.Perf().AllEvents() {
		d.events[ev.Kind.String()]++
		switch ev.Kind {
		case perfmon.EvPageFault:
			d.faultNs = append(d.faultNs, float64(ev.Dur))
		case perfmon.EvLockAcquire:
			d.lockNs = append(d.lockNs, float64(ev.Dur))
		case perfmon.EvBarrier:
			d.barrierNs = append(d.barrierNs, float64(ev.Dur))
		case perfmon.EvCkptEnd:
			d.ckptNs = append(d.ckptNs, float64(ev.Dur))
		}
	}
	return d
}

// addStats sums the counters the metrics use.
func addStats(a *platform.Stats, b platform.Stats) {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.BlockReads += b.BlockReads
	a.BlockWrites += b.BlockWrites
	a.PageFaults += b.PageFaults
	a.RemoteReads += b.RemoteReads
	a.RemoteWrites += b.RemoteWrites
	a.TwinsCreated += b.TwinsCreated
	a.DiffsCreated += b.DiffsCreated
	a.DiffBytes += b.DiffBytes
	a.Invalidations += b.Invalidations
	a.LockAcquires += b.LockAcquires
	a.BarrierCrossings += b.BarrierCrossings
	a.Evictions += b.Evictions
	a.CacheMisses += b.CacheMisses
	a.HomeMigrations += b.HomeMigrations
	a.ProtocolMsgs += b.ProtocolMsgs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts fills the counts and modeled spans of the traced pass.
// Rungs, spans and host figures are set by the caller.
func layerCounts(w *workload, traced []outcome, set func(string, float64)) (accesses float64) {
	var all detail
	byLayer := map[string]*platform.Stats{"swdsm": {}, "ivy": {}, "hybriddsm": {}, "smp": {}}
	var swFaultNs, ckptNs []float64
	var serveOps, serveStalls float64
	var recoveries float64
	for i, c := range w.cells {
		o := traced[i]
		if o.rep != nil {
			serveOps += float64(o.rep.ops)
			serveStalls += float64(o.rep.stalls)
			recoveries += float64(o.rep.recoveries)
		}
		d := o.d
		if d == nil {
			continue
		}
		addStats(&all.stats, d.stats)
		addStats(byLayer[c.layer], d.stats)
		all.cats = all.cats.Add(d.cats)
		all.amCalls += d.amCalls
		all.amRetries += d.amRetries
		all.amSuppressed += d.amSuppressed
		all.amBytes += d.amBytes
		all.queuedMsgs += d.queuedMsgs
		all.queuedBytes += d.queuedBytes
		all.netDrops += d.netDrops
		all.evKept += d.evKept
		all.evDrops += d.evDrops
		all.lockNs = append(all.lockNs, d.lockNs...)
		all.barrierNs = append(all.barrierNs, d.barrierNs...)
		all.ckptCaptures += d.ckptCaptures
		all.ckptBytes += d.ckptBytes
		ckptNs = append(ckptNs, d.ckptNs...)
		if c.layer == "swdsm" {
			swFaultNs = append(swFaultNs, d.faultNs...)
		}
	}
	ms := func(d vclock.Duration) float64 { return float64(d) / 1e6 }
	set("vclock.cat_compute_ms", ms(all.cats.Compute))
	set("vclock.cat_memory_ms", ms(all.cats.Memory))
	set("vclock.cat_protocol_ms", ms(all.cats.Protocol))
	set("vclock.cat_network_ms", ms(all.cats.Network))
	set("vclock.cat_stolen_ms", ms(all.cats.Stolen))

	set("simnet.msgs", float64(all.queuedMsgs+all.amCalls+all.amRetries))
	set("simnet.kbytes", float64(all.queuedBytes+all.amBytes)/1e3)
	set("simnet.drops", float64(all.netDrops))

	set("amsg.calls", float64(all.amCalls))
	set("amsg.retries", float64(all.amRetries))
	set("amsg.suppressed", float64(all.amSuppressed))
	set("amsg.retry_share", ratio(float64(all.amRetries), float64(all.amCalls)))

	sw := byLayer["swdsm"]
	set("swdsm.page_faults", float64(sw.PageFaults))
	set("swdsm.twins", float64(sw.TwinsCreated))
	set("swdsm.diffs", float64(sw.DiffsCreated))
	set("swdsm.diff_kbytes", float64(sw.DiffBytes)/1e3)
	set("swdsm.invalidations", float64(sw.Invalidations))
	set("swdsm.evictions", float64(sw.Evictions))
	set("swdsm.fault_vus_p50", quantile(swFaultNs, 0.5)/1e3)
	set("swdsm.fault_vus_p99", quantile(swFaultNs, 0.99)/1e3)

	iv := byLayer["ivy"]
	set("ivy.page_faults", float64(iv.PageFaults))
	set("ivy.invalidations", float64(iv.Invalidations))
	set("ivy.owner_moves", float64(iv.HomeMigrations))
	// Messages per fault stand in for the length of the probable-owner
	// chain a fault walks.
	set("ivy.msgs_per_fault", ratio(float64(iv.ProtocolMsgs), float64(iv.PageFaults)))

	hy := byLayer["hybriddsm"]
	set("hybriddsm.remote_reads", float64(hy.RemoteReads))
	set("hybriddsm.remote_writes", float64(hy.RemoteWrites))
	set("hybriddsm.evictions", float64(hy.Evictions))

	sm := byLayer["smp"]
	set("smp.cache_misses", float64(sm.CacheMisses))
	set("smp.miss_share", ratio(float64(sm.CacheMisses), float64(sm.Reads+sm.Writes)))

	set("hsync.lock_acquires", float64(all.stats.LockAcquires))
	set("hsync.barrier_crossings", float64(all.stats.BarrierCrossings))
	set("hsync.lock_wait_vus_p50", quantile(all.lockNs, 0.5)/1e3)
	set("hsync.lock_wait_vus_p99", quantile(all.lockNs, 0.99)/1e3)
	set("hsync.barrier_wait_vus_p50", quantile(all.barrierNs, 0.5)/1e3)
	set("hsync.barrier_wait_vus_p99", quantile(all.barrierNs, 0.99)/1e3)

	set("checkpoint.captures", float64(all.ckptCaptures))
	set("checkpoint.kbytes", float64(all.ckptBytes)/1e3)
	set("checkpoint.capture_vus_p50", quantile(ckptNs, 0.5)/1e3)
	set("cluster.recoveries", recoveries)

	accesses = float64(all.stats.Reads + all.stats.Writes)
	set("apps.accesses_k", accesses/1e3)
	set("apps.block_ops_k", float64(all.stats.BlockReads+all.stats.BlockWrites)/1e3)
	set("apps.accesses_per_fault", ratio(accesses, float64(all.stats.PageFaults)))

	set("serve.ops", serveOps)
	set("serve.stalls", serveStalls)
	var lowP50, lowP99 []float64
	var sat *serveSummary
	for i, c := range w.cells {
		rep := traced[i].rep
		if rep == nil || rep.p99Ns == 0 {
			continue
		}
		if c.role == roleSaturating {
			sat = rep
			continue
		}
		lowP50 = append(lowP50, float64(rep.p50Ns))
		lowP99 = append(lowP99, float64(rep.p99Ns))
	}
	// The cells below saturation differ in platform, not in offered load;
	// their median is the fabric's unloaded latency.
	set("serve.p50_us_low", median(lowP50)/1e3)
	set("serve.p99_us_low", median(lowP99)/1e3)
	if sat == nil {
		sat = &serveSummary{}
	}
	set("serve.sat_p99_us", float64(sat.p99Ns)/1e3)
	set("serve.sat_kops", sat.achievedPerS/1e3)
	set("serve.achieved_share", ratio(sat.achievedPerS, sat.offeredPerSec))
	set("serve.max_busy_ms", float64(sat.maxBusyNs)/1e6)

	set("perfmon.events_k", float64(all.evKept)/1e3)
	set("perfmon.dropped", float64(all.evDrops))
	return accesses
}

// explainedNs prices the traced pass's counts with the ladder: what the
// pass would cost if every counted operation cost what its rung measured
// in isolation. The share of core.run_ms this explains is reported, and
// the rest is the residual a later attribution has to find.
func explainedNs(w *workload, traced []outcome, rung func(string) float64) float64 {
	var total float64
	for i, c := range w.cells {
		d := traced[i].d
		if d == nil {
			continue
		}
		st := d.stats
		words := float64(st.Reads + st.Writes)
		var wordNs, lockNs, barrierNs float64
		switch c.layer {
		case "swdsm", "ivy":
			// Kernels that use the block accessors move nearly all
			// their words through them.
			wordNs = rung("swdsm.cached_read_ns")
			if st.BlockReads+st.BlockWrites > 0 {
				wordNs = rung("swdsm.block_read_ns_per_word")
			}
			lockNs, barrierNs = rung(c.layer+".lock_rt_ns"), rung(c.layer+".barrier4_ns")
			if c.nodes > 8 {
				barrierNs = rung("hsync.barrier64_ns")
				lockNs += rung("hsync.dlock_request_ns")
			}
		case "hybriddsm":
			wordNs, lockNs = rung("hybriddsm.local_read_ns"), rung("hybriddsm.lock_rt_ns")
			total += float64(st.RemoteReads)*rung("hybriddsm.remote_read_ns") +
				float64(st.RemoteWrites)*rung("hybriddsm.posted_write_ns")
			words -= float64(st.RemoteReads + st.RemoteWrites)
			barrierNs = rung("swdsm.barrier4_ns")
		case "smp":
			wordNs, lockNs = rung("smp.cached_read_ns"), rung("smp.lock_rt_ns")
			barrierNs = rung("swdsm.barrier4_ns")
		}
		total += words * wordNs
		if c.layer == "ivy" {
			total += float64(st.PageFaults) * rung("ivy.read_fault_ns")
		} else {
			total += float64(st.PageFaults)*rung("swdsm.fault_ns") +
				float64(st.DiffsCreated)*rung("swdsm.flush_ns_per_page")
		}
		total += float64(st.LockAcquires)*lockNs + float64(st.BarrierCrossings)*barrierNs
		// Every message of a ring cell is a cluster-control message.
		switch c.role {
		case roleRing:
			total += float64(d.queuedMsgs) * rung("simnet.sendrecv_ns")
		case roleRingGated:
			total += float64(d.queuedMsgs) * rung("vclock.gate_recv_ns")
		}
		if rep := traced[i].rep; rep != nil {
			total += float64(rep.ops) * (rung("loadgen.arrival_ns") + rung("loadgen.zipf_sample_ns") + rung("loadgen.hist_add_ns"))
		}
	}
	return total
}

// serveHost fills the two host figures of the serve cells from the
// untraced passes: wall per applied op, and what the crash and recovery
// cost over the same traffic without them.
func serveHost(w *workload, untraced []passResult, set func(string, float64)) {
	var perOp, recoverMs []float64
	for _, p := range untraced {
		var ops, wall, faulted, twin float64
		for i, c := range w.cells {
			o := p.cells[i]
			if o.rep != nil {
				ops += float64(o.rep.ops)
				wall += float64(o.wallNs)
			}
			switch c.role {
			case roleFaulted:
				faulted = float64(o.wallNs)
			case roleTwin:
				twin = float64(o.wallNs)
			}
		}
		perOp = append(perOp, ratio(wall, ops))
		recoverMs = append(recoverMs, (faulted-twin)/1e6)
	}
	set("serve.host_ns_per_op", median(perOp))
	set("cluster.recover_host_ms", median(recoverMs))
}
