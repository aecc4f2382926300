package stats_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenT2 reads the laoc_analysis_* counters of plain Table 2 from
// testdata/counters_t2.txt, keyed by the name after that prefix.
// TestCountersGolden holds the file equal to a live run, so the floors
// below read the same counts without running Table 2 again.
func goldenT2(t *testing.T) map[string]int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "counters_t2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "counter laoc_analysis_%s %d", &name, &v); err == nil {
			counts[strings.TrimSuffix(name, "_total")] = v
		}
	}
	for _, k := range []string{
		"dominators_requests", "dominators_reused", "liveness_requests", "liveness_reused",
		"liveness_computes", "liveness_full_builds", "liveness_revalidations",
		"liveness_var_walks_kept", "liveness_var_walks_invalidated",
	} {
		if _, ok := counts[k]; !ok {
			t.Fatalf("testdata/counters_t2.txt has no laoc_analysis_%s_total", k)
		}
	}
	return counts
}

// TestDominatorCacheReuseOnTable2 pins the analysis-cache hit rates on
// the Table 2 workload. Dominators are keyed on the CFG generation, so
// the many operand-rewriting passes between CFG reshapes (rename,
// ssaopt, pin collection, coalescing) all hit the cache; before the
// generation split the reuse rate was 23.2% — any regression back
// toward per-code-mutation invalidation (or a pass bypassing
// analysis.Dominators, as ssa.Verify once did) trips this.
func TestDominatorCacheReuseOnTable2(t *testing.T) {
	s := goldenT2(t)
	if s["dominators_requests"] == 0 || s["liveness_requests"] == 0 {
		t.Fatal("Table 2 workload issued no analysis requests")
	}
	domRate := float64(s["dominators_reused"]) / float64(s["dominators_requests"])
	liveRate := float64(s["liveness_reused"]) / float64(s["liveness_requests"])
	// Measured 69.1% dominator reuse (2324/3364) and 39.1% liveness
	// reuse (1481/3792); the floors here leave headroom.
	// Each suite function is converted to SSA once per call, and its
	// job computes both analyses once on each cold snapshot it runs
	// passes on (its own, and one per extra child where its shared pass
	// prefixes branch), so the reuse counted here is reuse across the
	// passes that run on one snapshot. The sreedhar conversion checks
	// the mutation generation itself instead of issuing a cache-hit
	// request per φ, so the remaining requests are the ones other
	// passes genuinely make.
	if domRate < 0.65 {
		t.Errorf("dominator cache reuse = %.1f%% (%d/%d), want >= 65%%",
			100*domRate, s["dominators_reused"], s["dominators_requests"])
	}
	if liveRate < 0.25 {
		t.Errorf("liveness cache reuse = %.1f%% (%d/%d), want >= 25%%",
			100*liveRate, s["liveness_reused"], s["liveness_requests"])
	}
}

// TestLivenessInvalidationRateOnTable2 pins the query engine's
// incremental-invalidation behavior on the Table 2 workload: a code-only
// mutation must revalidate the cached Info (keeping most per-variable
// walks) instead of rebuilding it, so whole-Info builds have to be a
// minority of the computes — the point of the engine, and the ≥50%
// reduction the PR 5 acceptance criteria demand. Measured 912 full
// builds / 2311 computes (39.5%: one per snapshot a job runs passes on
// plus one per converted suite function) and 71.2% of walks kept
// across 1399 revalidations; pinned with headroom.
func TestLivenessInvalidationRateOnTable2(t *testing.T) {
	s := goldenT2(t)
	if s["liveness_computes"] == 0 {
		t.Fatal("Table 2 workload computed no liveness")
	}
	if s["liveness_full_builds"]+s["liveness_revalidations"] != s["liveness_computes"] {
		t.Errorf("full builds (%d) + revalidations (%d) != computes (%d)",
			s["liveness_full_builds"], s["liveness_revalidations"], s["liveness_computes"])
	}
	fullRate := float64(s["liveness_full_builds"]) / float64(s["liveness_computes"])
	if fullRate > 0.5 {
		t.Errorf("whole-Info liveness builds = %.1f%% of computes (%d/%d), want <= 50%% — code-only mutations are not being revalidated incrementally",
			100*fullRate, s["liveness_full_builds"], s["liveness_computes"])
	}
	if walks := s["liveness_var_walks_kept"] + s["liveness_var_walks_invalidated"]; walks > 0 {
		keptRate := float64(s["liveness_var_walks_kept"]) / float64(walks)
		if keptRate < 0.5 {
			t.Errorf("per-variable walks kept across revalidations = %.1f%% (%d/%d), want >= 50%% — summary diffing is invalidating untouched variables",
				100*keptRate, s["liveness_var_walks_kept"], walks)
		}
	}
}
