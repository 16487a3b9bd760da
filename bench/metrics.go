package main

// metricDef names one metric the benchmark emits and its unit. BENCHMARK.json
// declares the same metrics with their direction and regression bound, and
// README.md maps each per-layer metric to the end-to-end metric and
// workloads it should move; the smoke test checks that the names and units
// here match BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced pass, one value per workload run.
// Every value is per library call ("op"): one Sort, Partition or MultiSelect
// on the batch workloads, one Splitters query on splitters-query.
var endToEnd = []metricDef{
	{"job_s_p50", "s"},
	{"job_s_p99", "s"},
	{"elems_per_s", "1/s"},
	{"queries_per_s", "1/s"},
	{"logical_ios", "count"},
	{"ratio_ub", "ratio"},
	{"cpu_s", "s"},
	{"space_amp", "ratio"},
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of the traced pass. Counts, times and sizes are
// per op unless the name says otherwise; metrics of a layer a workload does
// not use (phys on memory backends, empar off sort-par2-direct) read 0.
var perLayer = []metricDef{
	{"proc.user_s", "s"},
	{"proc.sys_s", "s"},
	{"proc.alloc_mb", "MiB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_s", "s"},
	{"emio.reads", "count"},
	{"emio.writes", "count"},
	{"emio.read_ns_p50", "ns"},
	{"emio.read_ns_p99", "ns"},
	{"emio.write_ns_p50", "ns"},
	{"emio.write_ns_p99", "ns"},
	{"emio.scratch_files", "count"},
	{"emio.peak_mem_elems", "count"},
	{"emio.peak_disk_blocks", "count"},
	{"emio.scan_read_ns_per_block", "ns"},
	{"emio.scan_write_ns_per_block", "ns"},
	{"emio.share", "ratio"},
	{"phys.reads", "count"},
	{"phys.writes", "count"},
	{"phys.coalesce", "ratio"},
	{"phys.read_ns_p50", "ns"},
	{"phys.read_ns_p99", "ns"},
	{"phys.write_ns_p50", "ns"},
	{"phys.write_ns_p99", "ns"},
	{"phys.read_run_blocks_p50", "count"},
	{"phys.write_run_blocks_p50", "count"},
	{"phys.prefetch_hit_ratio", "ratio"},
	{"phys.write_queue_depth_p95", "count"},
	{"phys.retries", "count"},
	{"uring.sqe_batch_p50", "count"},
	{"uring.queue_depth_p95", "count"},
	{"extsort.form_runs_s", "s"},
	{"extsort.merge_pass_s", "s"},
	{"extsort.ios", "count"},
	{"core.self_s", "s"},
	{"core.ios", "count"},
	{"msel.base_case_s", "s"},
	{"msel.self_s", "s"},
	{"msel.ios", "count"},
	{"mpart.sample_s", "s"},
	{"mpart.scatter_s", "s"},
	{"mpart.route_s", "s"},
	{"mpart.ios", "count"},
	{"approxsplit.self_s", "s"},
	{"approxsplit.ios", "count"},
	{"empar.sample_s", "s"},
	{"empar.runs_s", "s"},
	{"empar.range_merge_s", "s"},
	{"empar.assemble_s", "s"},
	{"empar.barrier_idle_s", "s"},
	{"empar.shard_imbalance", "ratio"},
	{"empar.ios_vs_seq", "ratio"},
	{"telemetry.trace_overhead", "ratio"},
	{"telemetry.spans", "count"},
	{"telemetry.metrics_ratio", "ratio"},
}

// metric is one emitted value, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values with their declared units.
type metricSet map[string]metric

// fill builds a metricSet from raw values, taking each unit from defs. Every
// declared metric is present: one the run did not produce reads 0.
func fill(defs []metricDef, vals map[string]float64) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
