package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/workload"
)

// handlerTransport short-circuits the HTTP client straight into the
// server's handler — no sockets, so the load test measures the
// service, not the loopback stack.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestSyntheticLoad100k drives 10⁵ synthetic compile requests through
// the service — the remaining piece of the ROADMAP's load-scale item.
// The stream cycles a bounded pool of distinct functions as raw b1
// bodies (the laocdrive -distinct shape), so a correct service answers
// it with:
//
//   - every request 200 OK — no sheds, deadlines, or fallbacks;
//   - zero result-cache poisonings (checksum verification never fires);
//   - O(distinct) memory residency, not O(requests): repeat content is
//     answered from the LRU-capped result cache before it is decoded,
//     so 100k requests must not grow the heap beyond a fixed bound;
//   - at most one decode and one full compile per distinct function
//     (singleflight may retry, hence "at most" with slack on the
//     cached count, not an exact equality).
//
// Skipped under -short: the full run is ~100k round trips.
func TestSyntheticLoad100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-request load test skipped in -short mode")
	}
	const (
		n        = 100_000
		distinct = 512
	)
	reg := metrics.New()
	// Raw bodies carry no deadline, so the server's default is each
	// request's budget.
	s, err := New(Config{
		Workers:         4,
		QueueDepth:      64,
		DefaultDeadline: 10 * time.Second,
		CacheEntries:    2 * distinct,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	funcs := workload.SynthPool(n, distinct, 4242)
	// Raw b1 bodies, each distinct function marshalled once: the
	// driver's marshal cost must not dominate the service under test.
	docs := make(map[*ir.Func][]byte, distinct)
	reqs := make([]workload.ClientRequest, n)
	for i, f := range funcs {
		if docs[f] == nil {
			doc, err := ir.MarshalBinary(f)
			if err != nil {
				t.Fatal(err)
			}
			docs[f] = doc
		}
		reqs[i] = workload.ClientRequest{RawBody: docs[f]}
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	irBefore := ir.Stats()

	rep := workload.Drive("http://laocd.load", reqs, workload.DriveOptions{
		Concurrency: 8,
		Client:      &http.Client{Transport: handlerTransport{h: s.Handler()}},
	}, nil, nil)

	irAfter := ir.Stats()
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	t.Logf("drive: %s", rep.String())
	t.Logf("heap: %d -> %d bytes; snapshots +%d, materializations +%d",
		ms0.HeapAlloc, ms1.HeapAlloc,
		irAfter.Snapshots-irBefore.Snapshots,
		irAfter.COWMaterializations-irBefore.COWMaterializations)

	if rep.OK != n {
		t.Fatalf("want all %d requests OK, got %d (report %s)", n, rep.OK, rep.String())
	}
	if rep.FellBack != 0 || rep.Degraded != 0 {
		t.Fatalf("healthy load fell back %d / degraded %d times", rep.FellBack, rep.Degraded)
	}
	if got := counterValue(reg, MetricCachePoison); got != 0 {
		t.Fatalf("result cache reported %d poisonings, want 0", got)
	}
	// Result-cache hits must carry nearly the whole stream; 4× slack on
	// the distinct count absorbs singleflight and eviction timing.
	if rep.Cached < n-4*distinct {
		t.Fatalf("only %d/%d responses served from cache, want >= %d", rep.Cached, n, n-4*distinct)
	}
	// Each distinct function decodes at most once.
	if miss := counterValue(reg, MetricDecodeMisses); miss > distinct {
		t.Fatalf("%d decodes for %d distinct functions", miss, distinct)
	}
	// The COW path bounds the pipeline's copy work by the distinct pool,
	// not the request count: only jobs that actually compile materialize.
	if mats := irAfter.COWMaterializations - irBefore.COWMaterializations; mats > 4*distinct {
		t.Fatalf("%d COW materializations for %d distinct functions — snapshots are being copied per request", mats, distinct)
	}
	// Residency must track the distinct pool and the LRU caps. The bound
	// is deliberately loose (64 MiB for ~512 small functions) — it exists
	// to catch O(requests) growth, which would be gigabytes here.
	const heapBound = 64 << 20
	if grew := int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc); grew > heapBound {
		t.Fatalf("heap grew %d bytes over %d requests, bound %d — residency is not O(distinct)", grew, n, heapBound)
	}
}
