// Metric names and help strings for the compilation service. The
// schema extends DESIGN.md's laoc_<subsystem>_<name> convention with
// the laocd_ prefix for daemon-side concerns: everything under laocd_
// is about requests, queues and caches, while the laoc_pipeline_*
// family the workers also feed stays about passes.
package server

import "outofssa/internal/obs/metrics"

const (
	// MetricRequests counts every /compile request accepted for
	// processing, labelled by final outcome kind ("ok", "parse",
	// "shed", "deadline", "draining", "compile").
	MetricRequests = "laocd_requests_total"
	// MetricShed counts requests rejected with 429 because the
	// admission queue was full.
	MetricShed = "laocd_shed_total"
	// MetricDeadline counts requests that ran out of their deadline
	// (in the queue or between passes).
	MetricDeadline = "laocd_deadline_exceeded_total"
	// MetricBreakerTrips counts closed→open transitions per corruption
	// class (the failing pass name).
	MetricBreakerTrips = "laocd_breaker_trips_total"
	// MetricBreakerProbes counts half-open probe attempts, labelled by
	// result ("ok", "fail").
	MetricBreakerProbes = "laocd_breaker_probes_total"
	// MetricDegraded counts requests compiled in naive-translation-only
	// mode while a breaker was open.
	MetricDegraded = "laocd_degraded_total"
	// MetricCacheHits / Misses / Poison count result-cache outcomes:
	// checksum-verified hits (answered in the handler), misses (tasks a
	// worker compiles, debug requests aside), and entries whose stored
	// checksum no longer matched — detected poison, evicted and
	// recompiled, never served.
	MetricCacheHits   = "laocd_cache_hits_total"
	MetricCacheMisses = "laocd_cache_misses_total"
	MetricCachePoison = "laocd_cache_poison_total"
	// MetricDecodeMisses counts decodes: one per request that parsed its
	// content (a singleflight leader that missed the result cache, or a
	// debug request). Hits and singleflight followers never decode.
	MetricDecodeMisses = "laocd_decode_misses_total"
	// MetricDecodeHits named the hits of the decode cache, which is
	// gone: the server no longer reports this family. The name stays so
	// that importers reading it still compile; it reads as zero.
	MetricDecodeHits = "laocd_decode_hits_total"
	// MetricFallbacks counts responses served from the naive fallback
	// after a contained pipeline failure.
	MetricFallbacks = "laocd_fallback_total"
	// MetricWorkerPanics counts panics that escaped the pipeline's own
	// containment and were caught by the worker's last-resort recover.
	MetricWorkerPanics = "laocd_worker_panics_total"
	// MetricQueueDepth / Inflight are the admission-control gauges
	// /readyz reports.
	MetricQueueDepth = "laocd_queue_depth"
	MetricInflight   = "laocd_inflight"
	// MetricRequestWallNS is the end-to-end request latency
	// distribution (accepted requests only).
	MetricRequestWallNS = "laocd_request_wall_ns"

	// laocd_store_* is the persistent cache store (see
	// internal/cachestore and persist.go); present only when the daemon
	// runs with -cache-dir. Most are bridges onto cachestore.Stats.
	MetricStoreWarm           = "laocd_store_warm_total"
	MetricStoreWarmSkipped    = "laocd_store_warm_skipped_total"
	MetricStoreAppends        = "laocd_store_appends_total"
	MetricStoreAppendBytes    = "laocd_store_append_bytes_total"
	MetricStoreDropped        = "laocd_store_dropped_total"
	MetricStoreFsyncs         = "laocd_store_fsyncs_total"
	MetricStoreScanRecords    = "laocd_store_scan_records_total"
	MetricStoreCorrupt        = "laocd_store_corrupt_total"
	MetricStoreTruncated      = "laocd_store_truncated_bytes_total"
	MetricStoreCompactions    = "laocd_store_compactions_total"
	MetricStoreCompactDropped = "laocd_store_compact_dropped_total"
	MetricStoreSizeBytes      = "laocd_store_size_bytes"
	MetricStoreSegments       = "laocd_store_segments"
)

func registerHelp(reg *metrics.Registry) {
	reg.SetHelp(MetricRequests, "laocd /compile requests by outcome kind")
	reg.SetHelp(MetricShed, "requests rejected 429 by admission control")
	reg.SetHelp(MetricDeadline, "requests that exceeded their deadline")
	reg.SetHelp(MetricBreakerTrips, "circuit-breaker closed-to-open transitions per corruption class")
	reg.SetHelp(MetricBreakerProbes, "circuit-breaker half-open probes by result")
	reg.SetHelp(MetricDegraded, "requests compiled in naive-translation-only (breaker open) mode")
	reg.SetHelp(MetricCacheHits, "result-cache hits (checksum verified)")
	reg.SetHelp(MetricCacheMisses, "result-cache misses (compiles)")
	reg.SetHelp(MetricCachePoison, "poisoned cache entries detected on read and evicted")
	reg.SetHelp(MetricDecodeMisses, "request contents decoded (cache hits and singleflight followers never decode)")
	reg.SetHelp(MetricFallbacks, "responses served from the naive fallback translation")
	reg.SetHelp(MetricWorkerPanics, "panics contained by the worker's last-resort recover")
	reg.SetHelp(MetricQueueDepth, "requests waiting for a worker")
	reg.SetHelp(MetricInflight, "requests being compiled right now")
	reg.SetHelp(MetricRequestWallNS, "end-to-end request latency (ns)")
	reg.SetHelp(MetricStoreWarm, "result-cache entries warm-loaded from the store at startup")
	reg.SetHelp(MetricStoreWarmSkipped, "store records that passed framing but are not results, e.g. older decode records (skipped at warm start, never served)")
	reg.SetHelp(MetricStoreAppends, "records appended by the store's write-behind goroutine")
	reg.SetHelp(MetricStoreAppendBytes, "encoded bytes appended to the store")
	reg.SetHelp(MetricStoreDropped, "store appends dropped (full queue, closed store, write error)")
	reg.SetHelp(MetricStoreFsyncs, "store fsync calls")
	reg.SetHelp(MetricStoreScanRecords, "valid records yielded by store scans")
	reg.SetHelp(MetricStoreCorrupt, "store records skipped for checksum/framing violations")
	reg.SetHelp(MetricStoreTruncated, "torn-tail bytes truncated during store recovery")
	reg.SetHelp(MetricStoreCompactions, "store compaction runs")
	reg.SetHelp(MetricStoreCompactDropped, "dead or stale records dropped by store compaction")
	reg.SetHelp(MetricStoreSizeBytes, "current on-disk store size (gauge-valued)")
	reg.SetHelp(MetricStoreSegments, "current store segment count (gauge-valued)")
}
