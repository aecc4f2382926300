// Package analysis memoizes per-function dataflow analyses, keyed on
// the function's mutation generation counter (ir.Func.Generation).
//
// Passes request an analysis — analysis.Liveness(f) instead of
// liveness.Compute(f) — and get the memoized result back as long as the
// function has not changed since it was computed. Every mutator in
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
// generation it was computed under.
type liveEntry struct {
	gen  uint64
	info *liveness.Info
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

// CacheStats counts cache traffic since the process started, across all
// functions and goroutines; callers measure a workload by the delta of
// two Stats calls. Requests = Computes + Reused; Reused is the
// number of recomputations the cache avoided.
type CacheStats struct {
	LivenessRequests uint64
	LivenessComputes uint64
	LivenessReused   uint64

	DominatorsRequests uint64
	DominatorsComputes uint64
	DominatorsReused   uint64
}

// The cache counters live on the process-wide metrics registry
// (metrics.Default) under the laoc_analysis_* names — the typed-
// registry migration of what used to be package-private atomics. The
// handles are resolved once at init; updates stay single atomic adds,
// and the counters appear in every metrics snapshot/exposition for
// free. CacheStats/Stats remain the stable programmatic API.
var (
	cLiveRequests = metrics.Default.Counter("laoc_analysis_liveness_requests_total")
	cLiveComputes = metrics.Default.Counter("laoc_analysis_liveness_computes_total")
	cLiveReused   = metrics.Default.Counter("laoc_analysis_liveness_reused_total")
	cDomRequests  = metrics.Default.Counter("laoc_analysis_dominators_requests_total")
	cDomComputes  = metrics.Default.Counter("laoc_analysis_dominators_computes_total")
	cDomReused    = metrics.Default.Counter("laoc_analysis_dominators_reused_total")
)

func init() {
	metrics.Default.SetHelp("laoc_analysis_liveness_requests_total", "Liveness analysis requests (computes + reuses).")
	metrics.Default.SetHelp("laoc_analysis_liveness_computes_total", "Liveness fixed points computed.")
	metrics.Default.SetHelp("laoc_analysis_liveness_reused_total", "Liveness requests served from the per-function memo.")
	metrics.Default.SetHelp("laoc_analysis_dominators_requests_total", "Dominator tree requests.")
	metrics.Default.SetHelp("laoc_analysis_dominators_computes_total", "Dominator trees computed.")
	metrics.Default.SetHelp("laoc_analysis_dominators_reused_total", "Dominator requests served from the per-function memo.")
}

// Stats returns a snapshot of the package-wide cache counters.
func Stats() CacheStats {
	return CacheStats{
		LivenessRequests:   uint64(cLiveRequests.Value()),
		LivenessComputes:   uint64(cLiveComputes.Value()),
		LivenessReused:     uint64(cLiveReused.Value()),
		DominatorsRequests: uint64(cDomRequests.Value()),
		DominatorsComputes: uint64(cDomComputes.Value()),
		DominatorsReused:   uint64(cDomReused.Value()),
	}
}

// Liveness returns the live-variable analysis of f, recomputing it only
// if f changed since the last request. The returned Info is shared:
// callers must treat it as read-only, and it describes f as of this
// call — a later mutation of f makes it stale without invalidating the
// pointer (exactly like calling liveness.Compute directly).
//
// Only the goroutine that owns f may call it: the memo fills in without
// locks. Another goroutine that wants f's analyses takes a Snapshot of
// frozen f and asks for those of the snapshot.
func Liveness(f *ir.Func) *liveness.Info {
	m := memoOf(f)
	gen := f.Generation()
	cLiveRequests.Inc()
	if e := m.live; e != nil && e.gen == gen {
		cLiveReused.Inc()
		return e.info
	}
	cLiveComputes.Inc()
	m.live = &liveEntry{gen: gen, info: liveness.Compute(f)}
	return m.live.info
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
