package ir

import "sync/atomic"

// Package-wide slab-operation counters. ir sits below the metrics
// registry in the import graph (obs depends on ir), so the counters are
// plain atomics here; internal/pipeline bridges them into the
// laoc_ir_* metric families via CounterFunc. All counters are
// monotonic and deterministic for a fixed serial workload; the counter
// golden (TestCountersGolden in internal/stats) pins their change over
// the table runs.
var (
	statClones          atomic.Int64
	statCloneSlabAllocs atomic.Int64
	statRestores        atomic.Int64

	statSnapshots           atomic.Int64
	statSnapshotSlabAllocs  atomic.Int64
	statCOWMaterializations atomic.Int64
	statCOWSlabCopies       atomic.Int64
	statCOWAdoptions        atomic.Int64

	statMarshalsV1   atomic.Int64
	statMarshalsB1   atomic.Int64
	statUnmarshalsV1 atomic.Int64
	statUnmarshalsB1 atomic.Int64
)

// SlabStats is a snapshot of the package-wide slab-operation counters.
type SlabStats struct {
	// Clones counts Func.Clone calls; CloneSlabAllocs sums the slab
	// allocations those clones performed (the cloneSlabCount budget per
	// call), so CloneSlabAllocs/Clones is the observed allocations-per-
	// clone ratio — O(arena chunks) by construction.
	Clones          int64
	CloneSlabAllocs int64
	// Restores counts Func.RestoreFrom copy-backs.
	Restores int64

	// Snapshots counts Func.Snapshot calls; SnapshotSlabAllocs sums the
	// up-front allocations those snapshots performed (chunk copies only —
	// the snapshotSlabCount budget). COWMaterializations counts Funcs
	// that faulted at least one shared slab into private storage;
	// COWSlabCopies counts the individual deferred slab copies; so
	// Snapshots − COWMaterializations is the number of copies the lazy
	// path elided outright, and COWMaterializations/Snapshots is the
	// copies-materialized ratio.
	// COWAdoptions counts mutations that found themselves the family's
	// last reader and took ownership of the shared storage with no copy
	// at all.
	Snapshots           int64
	SnapshotSlabAllocs  int64
	COWMaterializations int64
	COWSlabCopies       int64
	COWAdoptions        int64
	// Marshal/Unmarshal counters split by wire schema: v1 moves on the
	// per-instruction JSON walk, b1 on the binary arena dump.
	MarshalsV1   int64
	MarshalsB1   int64
	UnmarshalsV1 int64
	UnmarshalsB1 int64
}

// Stats returns a snapshot of the slab-operation counters.
func Stats() SlabStats {
	return SlabStats{
		Clones:              statClones.Load(),
		CloneSlabAllocs:     statCloneSlabAllocs.Load(),
		Restores:            statRestores.Load(),
		Snapshots:           statSnapshots.Load(),
		SnapshotSlabAllocs:  statSnapshotSlabAllocs.Load(),
		COWMaterializations: statCOWMaterializations.Load(),
		COWSlabCopies:       statCOWSlabCopies.Load(),
		COWAdoptions:        statCOWAdoptions.Load(),
		MarshalsV1:          statMarshalsV1.Load(),
		MarshalsB1:          statMarshalsB1.Load(),
		UnmarshalsV1:        statUnmarshalsV1.Load(),
		UnmarshalsB1:        statUnmarshalsB1.Load(),
	}
}
