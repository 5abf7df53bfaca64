package main

import (
	"fmt"

	"surf/registry"
)

// report prints the human-readable summary of a load window: the
// end-to-end figures with their sample counts, and the workload
// properties a later change can cite when it claims a gain for one of
// them.
func report(w *workload, seed uint64, lr *loadResult, s *summary, cacheShare float64, checks *checkTally) {
	n := len(s.latencies)
	fmt.Printf("workload %s seed %d: %d requests, %d failed, in %.2fs\n", w.name, seed, s.attempted, s.failed, lr.window.Seconds())
	fmt.Printf("  queries: p50 %.3f ms, p95 %.3f ms (n=%d)", quantile(s.latencies, 0.5), quantile(s.latencies, 0.95), n)
	if n < 200 {
		fmt.Printf(" [p95 from fewer than 200 samples]")
	}
	if n >= 1000 {
		fmt.Printf(", p99 %.3f ms", quantile(s.latencies, 0.99))
	}
	fmt.Printf("\n  slo %.0f ms met by %.4f of %d sent; error_frac %.4f\n",
		w.sloMS, ratio(float64(s.sloMet), float64(s.queries)), s.queries, ratio(float64(s.failed), float64(s.attempted)))
	byKind := map[kind][]float64{}
	for i := range lr.outcomes {
		if o := &lr.outcomes[i]; o.ok {
			byKind[o.req.kind] = append(byKind[o.req.kind], ms(o.latency))
		}
	}
	for k := kindFind; k <= kindFindMany; k++ {
		if v := byKind[k]; len(v) > 0 {
			fmt.Printf("  %s: p50 %.3f ms, p95 %.3f ms (n=%d)\n", k, quantile(v, 0.5), quantile(v, 0.95), len(v))
		}
	}
	if len(s.appendLat) > 0 {
		fmt.Printf("  appends: p50 %.3f ms (n=%d)\n", quantile(s.appendLat, 0.5), len(s.appendLat))
	}
	if len(s.lags) > 0 {
		fmt.Printf("  load generator lag: mean %.3f ms, max %.3f ms\n", mean(s.lags), quantile(s.lags, 1))
	}
	fmt.Printf("  properties: cache hit share %.3f, verify share %.3f, kde share %.3f, neighbour work %.4g per query, %.2f regions per query\n",
		cacheShare, ratio(float64(s.verified), float64(s.queries)), ratio(float64(s.kde), float64(s.queries)),
		ratio(s.neighbourWork, float64(s.queries)), ratio(float64(s.regions), float64(s.thresholdResults)))
	fmt.Printf("  correctness: %d comparisons, %d mismatches\n", checks.checked, checks.failed)
}

// perLayer sets the per-layer metrics of a traced run.
func perLayer(set func(name, unit string, v float64), s *summary, t *layerStats,
	st registry.ModelStatus, loadS, genS, trainS, cacheShare float64) {
	set("query_p95_ms", "ms", s.windowed(func(v []float64) float64 { return quantile(v, 0.95) }))
	set("server.hit_us", "us", perUS(t.serverHit, t.serverHits))
	set("server.resp_bytes", "bytes", ratio(float64(s.bytes), float64(s.attempted)))
	set("server.sse_events", "count", ratio(float64(s.events), float64(s.attempted)))

	set("registry.acquire_us", "us", perUS(t.acquire, t.acquires))
	set("registry.append_ms", "ms", perMS(t.appendReg, t.appends))
	set("registry.load_s", "s", loadS)

	set("surf.cache_hit_ratio", "ratio", ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)))
	set("surf.cache_hit_us", "us", perUS(t.cacheHit, t.cacheHits))
	set("surf.set_dataset_ms", "ms", perMS(t.setData, t.appends))
	set("surf.allocs_per_query", "count", ratio(t.refMallocs, float64(t.refQueries)))
	set("surf.alloc_kb_per_query", "KB", ratio(t.refKB, float64(t.refQueries)))
	set("surf.workload_gen_s", "s", genS)

	set("core.extract_ms", "ms", perMS(t.extract, t.queries))
	set("core.verify_ms", "ms", perMS(t.verify, t.queries))
	set("core.valid_frac", "ratio", ratio(t.validFrac, float64(t.threshold)))
	set("core.regions_per_query", "count", ratio(float64(t.regions), float64(t.threshold)))

	set("gso.self_ms", "ms", perMS(t.gsoSelf, t.queries))
	set("gso.iterations", "count", ratio(float64(t.iterations), float64(t.queries)))
	set("gso.evaluations", "count", ratio(float64(t.evaluations), float64(t.queries)))

	set("kernel.busy_ms", "ms", perMS(t.kernelBusy, t.queries))
	set("kernel.ns_per_row", "ns", ratio(float64(t.kernelBusy), float64(t.kernelRows)))
	set("kernel.rows_per_batch", "count", ratio(float64(t.kernelRows), float64(t.batches)))
	set("kernel.rows_per_query", "count", ratio(float64(t.kernelRows), float64(t.queries)))

	set("dataset.evaluate_us", "us", perUS(t.evalTime, t.evals))
	set("dataset.evaluate_allocs", "count", ratio(float64(t.evalAllocs), float64(t.evalAllocRuns)))
	set("dataset.append_us", "us", perUS(t.storeAppend, t.appends))

	set("kde.fit_ms", "ms", perMS(t.kdeFit, t.kdeQueries))
	set("kde.boxmass_us", "us", perUS(t.kdeBusy, t.boxmassCalls))
	set("kde.busy_ms", "ms", perMS(t.kdeBusy, t.kdeQueries))

	set("drift.evaluate_ms", "ms", perMS(t.drift, t.appends))
	set("gbt.train_s", "s", trainS)
	set("harness.lag_ms", "ms", mean(s.lags))
	set("append_p50_ms", "ms", quantile(s.appendLat, 0.5))

	set("workload.cache_share", "ratio", cacheShare)
	set("workload.verify_share", "ratio", ratio(float64(s.verified), float64(s.queries)))
	set("workload.kde_share", "ratio", ratio(float64(s.kde), float64(s.queries)))
	set("workload.neighbour_work", "count", ratio(s.neighbourWork, float64(s.queries)))

	set("trace.overhead_frac", "ratio", ratio(float64(t.tracedDur), float64(t.refDur))-1)
	set("trace.unaccounted", "count", float64(t.unaccounted))
	set("trace.requests", "count", float64(t.requests))
}
