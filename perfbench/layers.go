package main

// prediction records, for one per-layer metric, the end-to-end metric
// a change to that layer should move and the workloads it should move
// it on; elsewhere the prediction is no change. Written down before
// any measurement, per the benchmark's method, and checked against
// BENCHMARK.json by the smoke test.
type prediction struct {
	metric, moves, on string
}

var predictions = []prediction{
	{"query_p95_ms", "none: tail latency of the untraced window, reported without a bound", "all"},
	{"server.hit_us", "query_p50_ms", "interactive-2d"},
	{"server.resp_bytes", "query_p50_ms", "interactive-2d"},
	{"server.sse_events", "query_p50_ms", "interactive-2d"},
	{"registry.acquire_us", "query_p50_ms", "interactive-2d"},
	{"registry.append_ms", "append_p50_ms", "ingest-kde"},
	{"registry.load_s", "setup_s", "all"},
	{"surf.cache_hit_ratio", "query_p50_ms", "interactive-2d (0 on mine-3d)"},
	{"surf.cache_hit_us", "query_p50_ms", "interactive-2d"},
	{"surf.set_dataset_ms", "append_p50_ms", "ingest-kde"},
	{"surf.allocs_per_query", "heap_mb, query_p95_ms", "all"},
	{"surf.alloc_kb_per_query", "heap_mb, query_p95_ms", "all"},
	{"surf.workload_gen_s", "setup_s", "all"},
	{"core.extract_ms", "query_p50_ms", "all"},
	{"core.verify_ms", "query_p50_ms", "interactive-2d, ingest-kde"},
	{"core.valid_frac", "compliance", "all"},
	{"core.regions_per_query", "core.verify_ms, compliance", "all"},
	{"gso.self_ms", "query_p50_ms, throughput_qps", "mine-3d (flat on interactive-2d)"},
	{"gso.iterations", "query_p50_ms, throughput_qps", "mine-3d"},
	{"gso.evaluations", "query_p50_ms, throughput_qps", "mine-3d"},
	{"kernel.busy_ms", "query_p50_ms, throughput_qps", "mine-3d, interactive-2d"},
	{"kernel.ns_per_row", "query_p50_ms, throughput_qps", "mine-3d, interactive-2d"},
	{"kernel.rows_per_batch", "query_p50_ms", "mine-3d, interactive-2d"},
	{"kernel.rows_per_query", "query_p50_ms", "mine-3d, interactive-2d"},
	{"dataset.evaluate_us", "core.verify_ms, query_p50_ms", "interactive-2d"},
	{"dataset.evaluate_allocs", "core.verify_ms, heap_mb", "interactive-2d"},
	{"dataset.append_us", "append_p50_ms", "ingest-kde"},
	{"kde.fit_ms", "query_p50_ms", "ingest-kde only"},
	{"kde.boxmass_us", "query_p50_ms", "ingest-kde only"},
	{"kde.busy_ms", "query_p50_ms", "ingest-kde only"},
	{"drift.evaluate_ms", "append_p50_ms", "ingest-kde"},
	{"gbt.train_s", "setup_s", "all"},
	{"harness.lag_ms", "none: how late the load generator sent (behind the schedule, or after the previous response)", "all"},
	{"append_p50_ms", "none: end-to-end append latency", "ingest-kde"},
	{"workload.cache_share", "none: workload property", "all"},
	{"workload.verify_share", "none: workload property", "all"},
	{"workload.kde_share", "none: workload property", "all"},
	{"workload.neighbour_work", "none: workload property", "all"},
	{"trace.overhead_frac", "none: tracing cost", "all"},
	{"trace.unaccounted", "none: accounting check, 0 when layers add up", "all"},
	{"trace.requests", "none: traced sample size", "all"},
}
