package main

// def fixes one metric's name, unit and direction. Later issues cite the
// names verbatim, so a name is never reused for another quantity.
type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Clock says whose time or state the number comes from: "sim" values
	// are deterministic for a seed and must repeat bit for bit; "host"
	// values carry the machine's noise.
	Clock string `json:"-"`
}

// endToEnd are the metrics a user of the system would see, each with the
// share of the parent's median by which it may worsen.
var endToEnd = []def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
	{Name: "host_req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25, Clock: "host"},
	{Name: "host_allocs_per_req", Unit: "allocs", Better: "lower", Bound: 0.15, Clock: "host"},
	{Name: "host_peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.15, Clock: "host"},
	{Name: "sim_sat_kiops", Unit: "kIOPS", Better: "higher", Bound: 0.10, Clock: "sim"},
	{Name: "sim_p99_us", Unit: "us", Better: "lower", Bound: 0.20, Clock: "sim"},
	{Name: "sim_p999_us", Unit: "us", Better: "lower", Bound: 0.25, Clock: "sim"},
	{Name: "sim_slo_ok_frac", Unit: "fraction", Better: "higher", Bound: 0.02, Clock: "sim"},
	{Name: "waf", Unit: "ratio", Better: "lower", Bound: 0.05, Clock: "sim"},
	{Name: "read_amp", Unit: "ratio", Better: "lower", Bound: 0.05, Clock: "sim"},
	{Name: "map_bytes", Unit: "B", Better: "lower", Bound: 0.10, Clock: "sim"},
}

// perLayer are the metrics of single layers, from the traced run. Module
// names are the layer names. They carry no bound.
var perLayer = func() []def {
	h := func(name, unit, better string) def { return def{Name: name, Unit: unit, Better: better, Clock: "host"} }
	s := func(name, unit, better string) def { return def{Name: name, Unit: unit, Better: better, Clock: "sim"} }
	list := []def{
		h("trace_overhead_frac", "fraction", "lower"),

		// End-to-end latency figures that cannot be bounded end to end (see
		// curveMetrics), from the mid rung at trace length.
		s("sim_read_p50_us", "us", "lower"),
		s("sim_read_p99_us", "us", "lower"),
		s("sim_write_p99_us", "us", "lower"),
		s("sim_slo_miss_frac", "fraction", "lower"),

		h("workload.gen_ns_per_req", "ns", "lower"),
		s("workload.read_frac", "fraction", "lower"),
		s("workload.mean_pages", "pages", "lower"),
		s("workload.distinct_lpa_frac", "fraction", "lower"),
		h("trace.parse_ns_per_req", "ns", "lower"),

		h("ssd.read_call_ns", "ns", "lower"),
		h("ssd.read_call_p99_ns", "ns", "lower"),
		h("ssd.write_call_ns", "ns", "lower"),
		h("ssd.write_call_p99_ns", "ns", "lower"),
		h("ssd.self_ns_per_req", "ns", "lower"),
		s("ssd.buffer_hit_frac", "fraction", "higher"),
		s("ssd.cache_hit_frac", "fraction", "higher"),
		s("ssd.flush_blocks", "count", "lower"),
		s("ssd.gc_runs", "count", "lower"),
		s("ssd.gc_pages_moved_per_kwrite", "pages", "lower"),
		s("ssd.gc_time_share", "fraction", "lower"),
		s("ssd.gc_stall_share", "fraction", "lower"),
		s("ssd.mispredict_frac", "fraction", "lower"),
		s("ssd.double_reads_per_kread", "count", "lower"),
		s("ssd.exact_bit_hit_frac", "fraction", "higher"),
		s("ssd.oob_fallbacks", "count", "lower"),
		s("ssd.relearns", "count", "lower"),
		s("ssd.meta_reads_per_kreq", "count", "lower"),
		s("ssd.meta_writes_per_kwrite", "count", "lower"),
		h("ssd.recover_host_ms", "ms", "lower"),
		s("ssd.recover_groups_restored", "count", "higher"),
		h("ssd.invariants_host_ms", "ms", "lower"),

		h("leaftl.translate_ns", "ns", "lower"),
		s("leaftl.translate_calls_per_req", "count", "lower"),
		h("leaftl.commit_ns_per_pair", "ns", "lower"),
		h("leaftl.commit_gc_ns_per_pair", "ns", "lower"),
		h("leaftl.note_read_ns", "ns", "lower"),
		h("leaftl.maintain_ms", "ms", "lower"),
		h("leaftl.host_time_share", "fraction", "lower"),

		h("core.lookup_ns", "ns", "lower"),
		s("core.lookup_levels_avg", "levels", "lower"),
		s("core.lookup_levels_p99", "levels", "lower"),
		h("core.update_ns_per_pair", "ns", "lower"),
		h("core.compact_ms", "ms", "lower"),
		s("core.segments", "count", "lower"),
		s("core.approx_segment_frac", "fraction", "lower"),
		s("core.crb_bytes", "B", "lower"),
		s("core.bytes_per_lpa", "B", "lower"),
		s("core.map_reduction_x", "ratio", "higher"),

		s("pager.faults_per_kreq", "count", "lower"),
		s("pager.evictions_per_kreq", "count", "lower"),
		s("pager.dirty_writebacks", "count", "lower"),
		s("pager.resident_frac", "fraction", "higher"),
		s("journal.appends_per_kwrite", "count", "lower"),
		s("journal.folds", "count", "lower"),
		s("journal.gc_runs", "count", "lower"),
		s("journal.max_chain", "count", "lower"),
		s("journal.pages", "pages", "lower"),

		h("plr.fit_ns_per_point", "ns", "lower"),
		s("plr.segments_per_batch", "count", "lower"),
		s("plr.points_per_segment", "count", "higher"),

		s("flash.page_reads", "count", "lower"),
		s("flash.page_writes", "count", "lower"),
		s("flash.erases", "count", "lower"),
		s("flash.util_est", "fraction", "lower"),
		h("flash.read_ns", "ns", "lower"),
		h("flash.program_ns", "ns", "lower"),

		h("metrics.observe_ns", "ns", "lower"),

		s("attr.queue_wait_share", "fraction", "lower"),
		s("attr.svc_gc_share", "fraction", "lower"),
		s("attr.svc_flush_share", "fraction", "lower"),
		s("attr.svc_mapfault_share", "fraction", "lower"),
		s("attr.svc_plain_share", "fraction", "higher"),

		s("curve.low.read_p99_us", "us", "lower"),
		s("curve.low.write_p99_us", "us", "lower"),
		s("curve.high.read_p99_us", "us", "lower"),
		s("curve.high.write_p99_us", "us", "lower"),
		s("curve.high.achieved_frac", "fraction", "higher"),
		s("curve.slo_kiops", "kIOPS", "higher"),
	}
	for _, c := range append([]string{fullScheme}, companionSchemes...) {
		list = append(list,
			s(c+".sim_sat_kiops", "kIOPS", "higher"),
			s(c+".map_bytes", "B", "lower"),
			s(c+".waf", "ratio", "lower"),
			s(c+".read_amp", "ratio", "lower"),
			s(c+".meta_reads_per_kreq", "count", "lower"),
			h(c+".host_ns_per_req", "ns", "lower"),
		)
	}
	return list
}()

var defByName = func() map[string]def {
	m := map[string]def{}
	for _, list := range [][]def{endToEnd, perLayer} {
		for _, d := range list {
			if _, dup := m[d.Name]; dup {
				panic("bench: metric " + d.Name + " defined twice")
			}
			m[d.Name] = d
		}
	}
	return m
}()
