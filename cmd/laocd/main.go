// Command laocd is the out-of-SSA translation daemon: a long-running
// compilation service on top of the repository's checked pipeline,
// worker pool and metrics registry. It accepts LAI source or an IR
// document in any wire schema over HTTP — laoc-ir-v2 or laoc-ir-v1
// JSON, or binary laoc-ir-b1, posted raw as the whole body or base64'd
// in the JSON "ir" field — and answers with the translated function.
// See internal/server for the robustness layer (deadlines, admission
// control, circuit breaker, checksummed result cache) and README
// "Running as a service" for the endpoints.
//
// Server mode (the default):
//
//	laocd -addr :8023
//	curl -s localhost:8023/compile -d '{"lai":".func f\n.input A:R0\nentry:\n    add B, A, A\n    ret B\n.endfunc\n"}'
//
// SIGTERM/SIGINT drain gracefully: admission stops (503), accepted
// requests finish, then the process exits 0.
//
// Client mode (-drive) turns the binary into its own load generator,
// posting a deterministic mixed workload against a running instance
// and printing the classified report as JSON — the CI smoke job uses
// it. Fault and deadline sprinkles need the target to run
// -allow-debug.
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
	"outofssa/internal/workload"
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

		drive          = flag.String("drive", "", "client mode: drive the laocd at this base `URL` instead of serving")
		driveN         = flag.Int("n", 200, "client mode: number of requests")
		driveC         = flag.Int("c", 8, "client mode: concurrency")
		driveSeed      = flag.Int64("seed", 1, "client mode: synthetic workload seed")
		driveDistinct  = flag.Int("distinct", 0, "client mode: distinct function pool size; 0 makes every request distinct (pool < n exercises the service's caches at scale)")
		driveDeadline  = flag.Int("deadline-ms", 2000, "client mode: per-request deadline")
		faultEvery     = flag.Int("fault-every", 0, "client mode: inject a pass panic every Nth request (needs -allow-debug server)")
		malformedEvery = flag.Int("malformed-every", 0, "client mode: send a malformed body every Nth request")
		deadlineEvery  = flag.Int("deadline-every", 0, "client mode: send a deadline-exceeding request every Nth request (needs -allow-debug server)")
	)
	flag.Parse()

	if *drive != "" {
		os.Exit(driveMain(*drive, *driveN, *driveC, *driveDistinct, *driveSeed, *driveDeadline, *faultEvery, *malformedEvery, *deadlineEvery))
	}

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

// driveMain is client mode: generate, post, classify, report.
func driveMain(baseURL string, n, c, distinct int, seed int64, deadlineMS, faultEvery, malformedEvery, deadlineEvery int) int {
	funcs := workload.SynthPool(n, distinct, seed)
	reqs, err := workload.MixedRequests(funcs, deadlineMS, faultEvery, malformedEvery, deadlineEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laocd: drive:", err)
		return 2
	}
	rep := workload.Drive(baseURL, reqs, workload.DriveOptions{Concurrency: c}, nil, nil)
	fmt.Println(rep.String())
	if rep.Transport != 0 || rep.Other != 0 {
		fmt.Fprintf(os.Stderr, "laocd: drive: %d transport failures, %d unexpected statuses\n", rep.Transport, rep.Other)
		return 1
	}
	return 0
}
