// Package analysis memoizes per-function dataflow analyses, keyed on
// the function's mutation generation counter (ir.Func.Generation).
//
// Passes request an analysis — analysis.Liveness(f) instead of
// liveness.NewQuery(f, dom) — and get the memoized result back as long
// as the function has not changed since it was computed. Every mutator in
// package ir bumps the generation inside the arena accessors — operand
// rewrites included, since SetDefVal/SetUseVal are the only way to
// write an operand (the contract is spelled out in DESIGN.md §8 and
// §12). Changes no cached analysis reads — pins, loop depths — do not
// bump, which is what lets one liveness computation survive a whole
// string of pin-collect phases.
//
// The memo lives on the function itself (ir.Func.AnalysisLoad/Init), so
// it has exactly the function's lifetime: no global map, nothing to
// evict, and cloned functions start cold. The memo has one owner: the
// goroutine that owns the function, which is the only one that may
// mutate it or request its analyses. Other goroutines may only
// Snapshot a frozen function, and a snapshot starts with an empty
// memo of its own, so a memo is never read or written by two
// goroutines and needs no lock.
//
// Liveness and dominators are cached today; further analyses (def-use
// chains, dominance frontiers) slot in by adding a field to memo and an
// accessor in the same shape.
package analysis

import (
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/obs/metrics"
)

// memo is the per-function cache stored in the function's analysis
// slot: the latest liveness and dominator entries, nil until the first
// request.
type memo struct {
	live *liveEntry
	dom  *domEntry
}

// liveEntry is one memoized liveness result: the Info plus the
// generation pair it was computed under. Revalidation replaces the
// entry.
type liveEntry struct {
	gen    uint64
	cfgGen uint64
	info   *liveness.Info
}

type domEntry struct {
	cfgGen uint64
	tree   *cfg.DomTree
}

func memoOf(f *ir.Func) *memo {
	m, ok := f.AnalysisLoad().(*memo)
	if !ok {
		m = &memo{}
		f.AnalysisInit(m)
	}
	return m
}

// CacheStats counts cache traffic since the last ResetStats, across all
// functions and goroutines. Requests = Computes + Reused; Reused is the
// number of recomputations the cache avoided.
type CacheStats struct {
	LivenessRequests uint64
	LivenessComputes uint64
	LivenessReused   uint64

	// A liveness compute is either a full build (a from-scratch
	// query-engine construction) or an incremental revalidation of a
	// query-engine Info after a code-only mutation:
	// LivenessComputes = LivenessFullBuilds + LivenessRevalidations.
	// VarsKept/VarsInvalidated split the per-variable memos across all
	// revalidations: kept walks cost nothing to reuse, invalidated ones
	// are recomputed lazily on their next query.
	LivenessFullBuilds      uint64
	LivenessRevalidations   uint64
	LivenessVarsKept        uint64
	LivenessVarsInvalidated uint64

	DominatorsRequests uint64
	DominatorsComputes uint64
	DominatorsReused   uint64
}

// The cache counters live on the process-wide metrics registry
// (metrics.Default) under the laoc_analysis_* names — the typed-
// registry migration of what used to be package-private atomics. The
// handles are resolved once at init; updates stay single atomic adds,
// and the counters appear in every metrics snapshot/exposition for
// free. CacheStats/Stats/ResetStats remain the stable programmatic
// API.
var (
	cLiveRequests  = metrics.Default.Counter("laoc_analysis_liveness_requests_total")
	cLiveComputes  = metrics.Default.Counter("laoc_analysis_liveness_computes_total")
	cLiveReused    = metrics.Default.Counter("laoc_analysis_liveness_reused_total")
	cLiveFull      = metrics.Default.Counter("laoc_analysis_liveness_full_builds_total")
	cLiveReval     = metrics.Default.Counter("laoc_analysis_liveness_revalidations_total")
	cLiveVarsKept  = metrics.Default.Counter("laoc_analysis_liveness_var_walks_kept_total")
	cLiveVarsInval = metrics.Default.Counter("laoc_analysis_liveness_var_walks_invalidated_total")
	cDomRequests   = metrics.Default.Counter("laoc_analysis_dominators_requests_total")
	cDomComputes   = metrics.Default.Counter("laoc_analysis_dominators_computes_total")
	cDomReused     = metrics.Default.Counter("laoc_analysis_dominators_reused_total")
)

func init() {
	metrics.Default.SetHelp("laoc_analysis_liveness_requests_total", "Liveness analysis requests (computes + reuses).")
	metrics.Default.SetHelp("laoc_analysis_liveness_computes_total", "Liveness computes: full builds + incremental revalidations.")
	metrics.Default.SetHelp("laoc_analysis_liveness_reused_total", "Liveness requests served from the per-function memo.")
	metrics.Default.SetHelp("laoc_analysis_liveness_full_builds_total", "Liveness Infos built from scratch.")
	metrics.Default.SetHelp("laoc_analysis_liveness_revalidations_total", "Query-engine Infos revalidated incrementally after code-only mutations.")
	metrics.Default.SetHelp("laoc_analysis_liveness_var_walks_kept_total", "Memoized per-variable walks kept across revalidations.")
	metrics.Default.SetHelp("laoc_analysis_liveness_var_walks_invalidated_total", "Memoized per-variable walks dropped by revalidations.")
	metrics.Default.SetHelp("laoc_analysis_dominators_requests_total", "Dominator tree requests.")
	metrics.Default.SetHelp("laoc_analysis_dominators_computes_total", "Dominator trees computed.")
	metrics.Default.SetHelp("laoc_analysis_dominators_reused_total", "Dominator requests served from the per-function memo.")
}

// Stats returns a snapshot of the package-wide cache counters.
func Stats() CacheStats {
	return CacheStats{
		LivenessRequests:        uint64(cLiveRequests.Value()),
		LivenessComputes:        uint64(cLiveComputes.Value()),
		LivenessReused:          uint64(cLiveReused.Value()),
		LivenessFullBuilds:      uint64(cLiveFull.Value()),
		LivenessRevalidations:   uint64(cLiveReval.Value()),
		LivenessVarsKept:        uint64(cLiveVarsKept.Value()),
		LivenessVarsInvalidated: uint64(cLiveVarsInval.Value()),
		DominatorsRequests:      uint64(cDomRequests.Value()),
		DominatorsComputes:      uint64(cDomComputes.Value()),
		DominatorsReused:        uint64(cDomReused.Value()),
	}
}

// ResetStats zeroes the package-wide cache counters.
func ResetStats() {
	for _, c := range []*metrics.Counter{
		cLiveRequests, cLiveComputes, cLiveReused, cLiveFull, cLiveReval,
		cLiveVarsKept, cLiveVarsInval, cDomRequests, cDomComputes, cDomReused,
	} {
		c.Reset()
	}
}

// Liveness returns the live-variable analysis of f, recomputing it only
// if f changed since the last request. The returned Info is shared:
// callers must treat it as read-only, and it describes f as of this
// call — a later mutation of f makes it stale without invalidating the
// pointer (exactly like calling liveness.NewQuery directly).
//
// Only the goroutine that owns f may call it: the memo and the lazy
// query engine fill in on reads, without locks. Another goroutine that
// wants f's analyses takes a Snapshot of frozen f and asks for those of
// the snapshot.
func Liveness(f *ir.Func) *liveness.Info {
	m := memoOf(f)
	gen := f.Generation()
	cLiveRequests.Inc()
	e := m.live
	if e != nil && e.gen == gen {
		cLiveReused.Inc()
		return e.info
	}
	cLiveComputes.Inc()
	ne := &liveEntry{gen: gen, cfgGen: f.CFGGeneration()}
	if e != nil && e.cfgGen == ne.cfgGen && e.info.Incremental() {
		// Code-only mutation under an unchanged CFG: revalidate the
		// per-variable summaries and keep every walk whose summary is
		// unchanged instead of rebuilding the whole engine.
		live, kept, dropped := e.info.Revalidate()
		ne.info = live
		cLiveReval.Inc()
		cLiveVarsKept.Add(int64(kept))
		cLiveVarsInval.Add(int64(dropped))
	} else {
		ne.info = liveness.NewQuery(f, Dominators(f))
		cLiveFull.Inc()
	}
	m.live = ne
	return ne.info
}

// Dominators returns the dominator tree of f under the same memoization
// and ownership contract as Liveness, except that it is keyed on the CFG
// generation: dominators depend only on the block graph, so instruction
// and operand edits (which bump only the code generation) leave a cached
// tree valid. This is what lifts the dominator reuse rate past the
// liveness one — most passes rewrite code, few reshape the CFG.
func Dominators(f *ir.Func) *cfg.DomTree {
	m := memoOf(f)
	gen := f.CFGGeneration()
	cDomRequests.Inc()
	if e := m.dom; e != nil && e.cfgGen == gen {
		cDomReused.Inc()
		return e.tree
	}
	cDomComputes.Inc()
	m.dom = &domEntry{cfgGen: gen, tree: cfg.Dominators(f)}
	return m.dom.tree
}

// Invalidate drops every memoized analysis of f. Normal code never
// needs it — mutators bump the generation instead — but tests use it to
// establish a cold cache.
func Invalidate(f *ir.Func) {
	f.AnalysisClear()
}
