package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names with
// their direction and bound; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees: the modeled time
// the paper reports, and what a run costs the host. Every workload
// reports every one, from untraced passes only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"virtual_ms", "virtual_ms"},
	{"host_pass_ms", "ms"},
	{"host_cpu_ms", "ms"},
	{"host_alloc_mb", "MB"},
	{"host_allocs_k", "1e3"},
}

// perLayer are the metrics of single layers, a layer being a package.
// Counts and modeled spans come from the traced pass, *_ns and *_allocs
// from the ladder.
var perLayer = []metricDef{
	{"vclock.cat_compute_ms", "virtual_ms"},
	{"vclock.cat_memory_ms", "virtual_ms"},
	{"vclock.cat_protocol_ms", "virtual_ms"},
	{"vclock.cat_network_ms", "virtual_ms"},
	{"vclock.cat_stolen_ms", "virtual_ms"},
	{"vclock.virtual_spread_pct", "%"},
	{"vclock.virtual_variants", "ratio"},
	{"vclock.advance_ns", "ns"},
	{"vclock.vlock_ns", "ns"},
	{"vclock.gate_recv_ns", "ns"},
	{"vclock.horizon64_ns", "ns"},

	{"simnet.msgs", "count"},
	{"simnet.kbytes", "kB"},
	{"simnet.drops", "count"},
	{"simnet.sendrecv_ns", "ns"},
	{"simnet.sendrecv_allocs", "allocs"},
	{"simnet.deepq_ratio", "ratio"},

	{"amsg.calls", "count"},
	{"amsg.retries", "count"},
	{"amsg.suppressed", "count"},
	{"amsg.retry_share", "ratio"},
	{"amsg.call_ns", "ns"},
	{"amsg.call_allocs", "allocs"},

	{"memsim.home_lookup_ns", "ns"},
	{"pagestore.frame_ns", "ns"},
	{"notices.take_ns", "ns"},

	{"swdsm.page_faults", "count"},
	{"swdsm.twins", "count"},
	{"swdsm.diffs", "count"},
	{"swdsm.diff_kbytes", "kB"},
	{"swdsm.invalidations", "count"},
	{"swdsm.evictions", "count"},
	{"swdsm.fault_vus_p50", "virtual_us"},
	{"swdsm.fault_vus_p99", "virtual_us"},
	{"swdsm.local_read_ns", "ns"},
	{"swdsm.cached_read_ns", "ns"},
	{"swdsm.block_read_ns_per_word", "ns"},
	{"swdsm.fault_ns", "ns"},
	{"swdsm.fault_allocs", "allocs"},
	{"swdsm.flush_ns_per_page", "ns"},
	{"swdsm.lock_rt_ns", "ns"},
	{"swdsm.barrier4_ns", "ns"},

	{"ivy.page_faults", "count"},
	{"ivy.invalidations", "count"},
	{"ivy.owner_moves", "count"},
	{"ivy.msgs_per_fault", "ratio"},
	{"ivy.read_fault_ns", "ns"},
	{"ivy.write_fault_ns", "ns"},
	{"ivy.lock_rt_ns", "ns"},
	{"ivy.barrier4_ns", "ns"},

	{"hybriddsm.remote_reads", "count"},
	{"hybriddsm.remote_writes", "count"},
	{"hybriddsm.evictions", "count"},
	{"hybriddsm.local_read_ns", "ns"},
	{"hybriddsm.remote_read_ns", "ns"},
	{"hybriddsm.posted_write_ns", "ns"},
	{"hybriddsm.lock_rt_ns", "ns"},

	{"smp.cache_misses", "count"},
	{"smp.miss_share", "ratio"},
	{"smp.cached_read_ns", "ns"},
	{"smp.lock_rt_ns", "ns"},

	{"hsync.lock_acquires", "count"},
	{"hsync.barrier_crossings", "count"},
	{"hsync.lock_wait_vus_p50", "virtual_us"},
	{"hsync.lock_wait_vus_p99", "virtual_us"},
	{"hsync.barrier_wait_vus_p50", "virtual_us"},
	{"hsync.barrier_wait_vus_p99", "virtual_us"},
	{"hsync.dlock_request_ns", "ns"},
	{"hsync.tree_pathcost_ns", "ns"},
	{"hsync.barrier64_ns", "ns"},

	{"checkpoint.captures", "count"},
	{"checkpoint.kbytes", "kB"},
	{"checkpoint.capture_vus_p50", "virtual_us"},
	{"checkpoint.encode_ns_per_page", "ns"},
	{"cluster.recoveries", "count"},
	{"cluster.recover_host_ms", "ms"},

	{"core.boot_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.close_ms", "ms"},
	{"core.boot_share", "ratio"},
	{"core.env_read_overhead_ns", "ns"},
	{"core.sync_overhead_ns", "ns"},
	{"models.jiajia_call_overhead_ns", "ns"},

	{"apps.accesses_k", "1e3"},
	{"apps.block_ops_k", "1e3"},
	{"apps.accesses_per_fault", "ratio"},
	{"apps.host_ns_per_access", "ns"},

	{"serve.ops", "count"},
	{"serve.stalls", "count"},
	{"serve.p50_us_low", "virtual_us"},
	{"serve.p99_us_low", "virtual_us"},
	{"serve.sat_p99_us", "virtual_us"},
	{"serve.sat_kops", "kops/virtual_s"},
	{"serve.achieved_share", "ratio"},
	{"serve.max_busy_ms", "virtual_ms"},
	{"serve.host_ns_per_op", "ns"},
	{"loadgen.arrival_ns", "ns"},
	{"loadgen.zipf_sample_ns", "ns"},
	{"loadgen.hist_add_ns", "ns"},

	{"perfmon.events_k", "1e3"},
	{"perfmon.dropped", "count"},
	{"perfmon.trace_overhead_pct", "%"},
	{"perfmon.record_ns", "ns"},
	{"perfmon.disabled_ns", "ns"},

	{"host.gc_cycles", "count"},
	{"host.gc_pause_ms", "ms"},
	{"host.goroutines_peak", "count"},
	{"host.peak_rss_mb", "MB"},
	{"host.cpu_util", "ratio"},
	{"host.pass_ms_max", "ms"},
	{"host.build_s", "s"},
	{"host.explained_share", "ratio"},
}

// metricSet holds the values of one family for one workload. A name
// outside the family or set twice is a bug in the benchmark.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			if _, dup := m.values[name]; dup {
				panic("benchmark: metric set twice: " + name)
			}
			m.values[name] = v
			return
		}
	}
	panic("benchmark: unknown metric: " + name)
}

// missing lists the metrics nothing has set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{m.values[d.name], d.unit}
	}
	return out
}

func (m *metricSet) String() string {
	s := ""
	for _, d := range m.defs {
		s += fmt.Sprintf("  %-34s %16.4f %s\n", d.name, m.values[d.name], d.unit)
	}
	return s
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (0 when empty); v is not
// modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
