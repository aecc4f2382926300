// Command laocdrive is laocd's load generator: it posts a
// deterministic mixed workload against a running laocd and prints the
// classified report as JSON. The valid compiles alternate v1 JSON and
// raw b1 bodies; the sprinkles add malformed bodies, deadline-forced
// 504s and injected pass panics, the last two only against a daemon
// run with -allow-debug.
//
//	laocdrive -url http://127.0.0.1:8023 -n 120 -c 16 -seed 42 -fault-every 25
//
// It exits 1 on any transport failure or unexpected status, so a
// crashed or wedged daemon fails the run, and 2 on a usage error.
//
// -assert then checks counter invariants on the daemon's
// /metrics.json, scraped after the drive (-n 0 skips the drive):
//
//	laocdrive -url http://127.0.0.1:8023 -n 0 -assert 'laocd_requests_total>=120,laocd_worker_panics_total==0'
//
// Each clause is name<op>value with op one of >= <= == != > <. A name
// refers to the whole family: its values are summed across label sets,
// so laocd_requests_total>=120 covers every kind label at once. A
// clause whose family the scrape does not hold fails, so a renamed or
// misspelt metric cannot pass as zero. Any failed clause exits 1.
//
// The deterministic counters of the table runs are not checked here:
// TestCountersGolden in internal/stats pins them exactly, and perfbench/
// is the wall-time benchmark.
package main

import (
	"flag"
	"fmt"
	"os"

	"outofssa/internal/workload"
)

func main() {
	var (
		url            = flag.String("url", "http://127.0.0.1:8023", "base `URL` of the laocd to drive")
		n              = flag.Int("n", 200, "number of requests")
		c              = flag.Int("c", 8, "concurrency")
		seed           = flag.Int64("seed", 1, "synthetic workload seed")
		distinct       = flag.Int("distinct", 0, "distinct function pool size; 0 makes every request distinct (pool < n exercises the service's caches at scale)")
		deadlineMS     = flag.Int("deadline-ms", 2000, "per-request deadline of the v1 JSON requests")
		faultEvery     = flag.Int("fault-every", 0, "inject a pass panic every Nth request (needs -allow-debug server)")
		malformedEvery = flag.Int("malformed-every", 0, "send a malformed body every Nth request")
		deadlineEvery  = flag.Int("deadline-every", 0, "send a deadline-exceeding request every Nth request (needs -allow-debug server)")
		assert         = flag.String("assert", "", "comma-separated counter `invariants` checked on <url>/metrics.json after the drive, e.g. 'laocd_requests_total>=30,laocd_shed_total==0'; families are summed across labels")
	)
	flag.Parse()

	if *n > 0 {
		funcs := workload.SynthPool(*n, *distinct, *seed)
		reqs, err := workload.MixedRequests(funcs, *deadlineMS, *faultEvery, *malformedEvery, *deadlineEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "laocdrive:", err)
			os.Exit(2)
		}
		rep := workload.Drive(*url, reqs, workload.DriveOptions{Concurrency: *c}, nil, nil)
		fmt.Println(rep.String())
		if rep.Transport != 0 || rep.Other != 0 {
			fmt.Fprintf(os.Stderr, "laocdrive: %d transport failures, %d unexpected statuses\n", rep.Transport, rep.Other)
			os.Exit(1)
		}
	}
	if *assert == "" {
		return
	}
	snap, err := scrape(*url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laocdrive:", err)
		os.Exit(1)
	}
	failures := runAsserts(snap, *assert)
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		fmt.Printf("laocdrive: %d assertion failure(s) on %s/metrics.json\n", len(failures), *url)
		os.Exit(1)
	}
	fmt.Printf("laocdrive: assertions ok on %s/metrics.json\n", *url)
}
