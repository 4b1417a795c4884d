package main

// metricDef names one printed metric and its unit. The two lists are
// the benchmark's output contract; BENCHMARK.json at the repository
// root describes the same names and units, and the self-test holds the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0. Every workload reports every one of them: an "operation"
// is a whole Join on the batch workloads and a Match call on
// serve-mixed.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, printed with --trace 1. A
// layer a workload does not run reports 0 (for example distrib.* on an
// in-process join, ssjserve.* on a batch join).
var perLayer = []metricDef{
	{"core.stage1_s", "s"},
	{"core.stage2_s", "s"},
	{"core.stage3_s", "s"},
	{"core.alloc_mib", "MiB"},
	{"core.gc_cycles", "count"},
	{"core.s2_replicas", "count"},
	{"mapreduce.s1.map_busy_s", "s"},
	{"mapreduce.s1.reduce_busy_s", "s"},
	{"mapreduce.s2.map_busy_s", "s"},
	{"mapreduce.s2.reduce_busy_s", "s"},
	{"mapreduce.s3.map_busy_s", "s"},
	{"mapreduce.s3.reduce_busy_s", "s"},
	{"mapreduce.s2.reduce_skew", "ratio"},
	{"mapreduce.shuffle_mib", "MiB"},
	{"mapreduce.side_mib", "MiB"},
	{"mapreduce.tasks", "count"},
	{"mapreduce.slot_idle_frac", "fraction"},
	{"tokenize.s", "s"},
	{"tokenize.tokens", "count"},
	{"ppjoin.candidates", "count"},
	{"ppjoin.verified", "count"},
	{"ppjoin.results", "count"},
	{"ppjoin.yield", "fraction"},
	{"ppjoin.kernel_s", "s"},
	{"bitsig.rejected", "count"},
	{"bitsig.reject_frac", "fraction"},
	{"distrib.rpcs", "count"},
	{"distrib.rpc_s", "s"},
	{"distrib.overhead_s", "s"},
	{"distrib.payload_mib", "MiB"},
	{"distrib.vs_inprocess", "ratio"},
	{"ssjserve.worker_p50_ms", "ms"},
	{"ssjserve.worker_p99_ms", "ms"},
	{"ssjserve.queue_wait_ms", "ms"},
	{"ssjserve.match_p99_ms", "ms"},
	{"ssjserve.add_p50_ms", "ms"},
	{"ssjserve.reorders", "count"},
	{"ssjserve.pairs_per_match", "count"},
	{"bench.trace_overhead_frac", "fraction"},
}

// zeroLayers returns a per-layer value map with every metric at 0, for
// a workload to fill in the layers it runs.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
