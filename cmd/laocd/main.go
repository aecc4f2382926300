// Command laocd is the out-of-SSA translation daemon: a long-running
// compilation service on top of the repository's checked pipeline,
// worker pool and metrics registry. It accepts LAI source or an IR
// document over HTTP — laoc-ir-v1 JSON in the "ir" field, or a binary
// laoc-ir-b1 document posted raw as the whole body — and answers with
// the translated function. See internal/server for the robustness
// layer (deadlines, admission control, circuit breaker, checksummed
// result cache) and README "Running as a service" for the endpoints.
//
//	laocd -addr :8023
//	curl -s localhost:8023/compile -d '{"lai":".func f\n.input A:R0\nentry:\n    add B, A, A\n    ret B\n.endfunc\n"}'
//
// SIGTERM/SIGINT drain gracefully: admission stops (503), accepted
// requests finish, then the process exits 0. cmd/laocdrive is the
// matching load generator.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8023", "listen `address`")
		workers      = flag.Int("workers", 4, "compile worker pool size")
		queue        = flag.Int("queue", 64, "admission queue depth (full queue sheds 429)")
		deadline     = flag.Duration("deadline", 2*time.Second, "default per-request deadline")
		maxDeadline  = flag.Duration("max-deadline", 10*time.Second, "upper clamp on requested deadlines")
		exp          = flag.String("exp", pipeline.ExpLphiABIC, "pipeline experiment preset requests compile under")
		cacheEntries = flag.Int("cache-entries", 1024, "result cache capacity")
		brThreshold  = flag.Int("breaker-threshold", 5, "verifier failures within the window that trip a class")
		brWindow     = flag.Duration("breaker-window", 30*time.Second, "breaker failure-count window")
		brCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open time before a half-open probe")
		allowDebug   = flag.Bool("allow-debug", false, "accept request debug blocks (injected sleeps/panics) — test rigs only")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		cacheDir     = flag.String("cache-dir", "", "persist the result cache in this `directory` and warm-start from it (empty disables)")
		cacheFsync   = flag.String("cache-fsync", "never", "cache store durability: never, interval or always")
		cacheMax     = flag.Int64("cache-max-bytes", 64<<20, "cache store on-disk size cap before compaction (negative disables)")
	)
	flag.Parse()

	s, err := server.New(server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		Experiment:       *exp,
		CacheEntries:     *cacheEntries,
		BreakerThreshold: *brThreshold,
		BreakerWindow:    *brWindow,
		BreakerCooldown:  *brCooldown,
		Metrics:          metrics.Default,
		AllowDebug:       *allowDebug,
		CacheDir:         *cacheDir,
		StoreMaxBytes:    *cacheMax,
		StoreFsync:       *cacheFsync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "laocd:", err)
		os.Exit(2)
	}
	s.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laocd:", err)
		os.Exit(2)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "laocd: serve:", err)
			os.Exit(2)
		}
	}()
	fmt.Printf("laocd: serving on %s (exp=%s workers=%d queue=%d)\n", ln.Addr(), *exp, *workers, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	sig := <-sigc
	fmt.Printf("laocd: %v, draining\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "laocd: drain:", err)
		hs.Close()
		os.Exit(1)
	}
	hs.Close()
	fmt.Println("laocd: drained, bye")
}
