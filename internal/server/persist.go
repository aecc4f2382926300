// Cache persistence: the glue between the in-memory result cache and
// the append-only cachestore. With Config.CacheDir set, the server
//
//   - warm-starts at New: every valid result record in the store is
//     replayed into the result cache (code + counters, re-checksummed
//     on insert). Records the store flags as corrupt never reach this
//     code; records of any other kind — the decode records an older
//     laocd wrote alongside its results — are counted as warm-skipped
//     and never read.
//   - writes behind on insert: each compiled result is handed to the
//     store's write-behind queue as a Record, which never blocks the
//     request path (a full queue drops the record — the store is a
//     cache of a cache).
//   - drives compaction liveness: the store's Live callback asks the
//     result cache whether a key is still resident, so the disk follows
//     memory instead of growing monotonically; records of other kinds
//     are never live, so compaction drops them.
//
// The store is closed in Drain after the workers stop, so every
// accepted request's write-behind Put has been enqueued by then and
// Close's flush makes it durable.
package server

import (
	"fmt"

	"outofssa/internal/cachestore"
	"outofssa/internal/obs/metrics"
)

// openStore opens the configured cache store and replays it into the
// result cache. Called from New after the cache exists; returns
// (nil, nil) when persistence is disabled.
func (s *Server) openStore() (*cachestore.Store, error) {
	if s.conf.CacheDir == "" {
		return nil, nil
	}
	policy, err := cachestore.ParseFsyncPolicy(s.conf.StoreFsync)
	if err != nil {
		return nil, err
	}
	store, err := cachestore.Open(s.conf.CacheDir, cachestore.Options{
		MaxBytes: s.conf.StoreMaxBytes,
		Fsync:    policy,
		Live: func(kind cachestore.Kind, key uint64) bool {
			return kind == cachestore.KindResult && s.cache.contains(key)
		},
	})
	if err != nil {
		return nil, err
	}

	// Warm scan. The store yields only records whose frame checksum
	// verified, and the result cache re-checksums every entry it
	// serves.
	warm, skipped := 0, 0
	scanErr := store.Scan(func(rec *cachestore.Record) bool {
		if rec.Kind != cachestore.KindResult {
			skipped++
			return true
		}
		s.cache.put(rec.Key, &cacheEntry{code: rec.Payload, name: rec.Name,
			moves: rec.Moves, instrs: rec.Instrs, fellBack: rec.FellBack, degraded: rec.Degraded})
		warm++
		return true
	})
	if scanErr != nil {
		store.Close()
		return nil, fmt.Errorf("server: warm scan: %w", scanErr)
	}
	if reg := s.reg; reg != nil {
		reg.Counter(MetricStoreWarm, metrics.L("kind", "result")).Add(int64(warm))
		reg.Counter(MetricStoreWarmSkipped).Add(int64(skipped))
	}
	s.bridgeStoreMetrics(store)
	return store, nil
}

// bridgeStoreMetrics exposes the store's internal counters as
// laocd_store_* families. CounterFunc reads them at snapshot time, so
// there is no double bookkeeping; size/segments are gauge-valued but
// ride the same bridge (the registry has no GaugeFunc — their help
// strings say so).
func (s *Server) bridgeStoreMetrics(store *cachestore.Store) {
	reg := s.reg
	if reg == nil {
		return
	}
	reg.CounterFunc(MetricStoreAppends, func() int64 { return store.Stats().Appends })
	reg.CounterFunc(MetricStoreAppendBytes, func() int64 { return store.Stats().AppendBytes })
	reg.CounterFunc(MetricStoreDropped, func() int64 { return store.Stats().Dropped })
	reg.CounterFunc(MetricStoreFsyncs, func() int64 { return store.Stats().Fsyncs })
	reg.CounterFunc(MetricStoreScanRecords, func() int64 { return store.Stats().ScanRecords })
	reg.CounterFunc(MetricStoreCorrupt, func() int64 { return store.Stats().CorruptDropped })
	reg.CounterFunc(MetricStoreTruncated, func() int64 { return store.Stats().TruncatedBytes })
	reg.CounterFunc(MetricStoreCompactions, func() int64 { return store.Stats().Compactions })
	reg.CounterFunc(MetricStoreCompactDropped, func() int64 { return store.Stats().CompactDropped })
	reg.CounterFunc(MetricStoreSizeBytes, func() int64 { return store.Stats().SizeBytes })
	reg.CounterFunc(MetricStoreSegments, func() int64 { return store.Stats().Segments })
}

// persistResult hands a freshly inserted result-cache entry to the
// write-behind queue. No-op without a store.
func (s *Server) persistResult(key uint64, e *cacheEntry) {
	if s.store == nil {
		return
	}
	s.store.Put(&cachestore.Record{
		Kind: cachestore.KindResult, Key: key, Payload: e.code,
		Name: e.name, Moves: e.moves, Instrs: e.instrs,
		FellBack: e.fellBack, Degraded: e.degraded,
	})
}
