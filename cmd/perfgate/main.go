// Command perfgate checks counter invariants on a metrics snapshot and
// exits non-zero when one fails. CI runs it on live laocd scrapes:
//
//	curl -s http://127.0.0.1:8123/metrics.json > m.json
//	perfgate -current m.json -assert 'laocd_requests_total>=120,laocd_worker_panics_total==0'
//
// Each clause is name<op>value with op one of >= <= == != > <. A name
// refers to the whole family: its values are summed across label sets,
// so laocd_requests_total>=120 covers every kind label at once. A
// clause whose family the snapshot does not hold fails, so a renamed or
// misspelt metric cannot pass as zero.
//
// The deterministic counters of the table runs are not checked here:
// TestCountersGolden in internal/stats pins them exactly, and perfbench/
// is the wall-time benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"outofssa/internal/obs/metrics"
)

func main() {
	current := flag.String("current", "", "snapshot `file` to check (laocd /metrics.json or ssabench -metrics-out); required")
	assert := flag.String("assert", "", "comma-separated counter `invariants`, e.g. 'laocd_requests_total>=30,laocd_shed_total==0'; families are summed across labels; required")
	flag.Parse()

	if *current == "" || *assert == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -current and -assert are required")
		os.Exit(2)
	}
	cur, err := metrics.ReadFile(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	failures := runAsserts(cur, *assert)
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		fmt.Printf("perfgate: %d assertion failure(s) on %s\n", len(failures), *current)
		os.Exit(1)
	}
	fmt.Printf("perfgate: assertions ok on %s\n", *current)
}

// runAsserts evaluates a comma-separated list of counter invariants
// against the snapshot and returns one line per failed or malformed
// clause. A family's value is the sum of its counters across label
// sets; a family the snapshot does not hold fails its clause.
func runAsserts(snap *metrics.FileSnapshot, spec string) []string {
	sums := map[string]int64{}
	for _, c := range snap.Counters {
		sums[c.Name] += c.Value
	}
	var failures []string
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, op, want, err := parseAssert(clause)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		got, ok := sums[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no such counter family in the snapshot", name))
			continue
		}
		switch op {
		case ">=":
			ok = got >= want
		case "<=":
			ok = got <= want
		case "==":
			ok = got == want
		case "!=":
			ok = got != want
		case ">":
			ok = got > want
		case "<":
			ok = got < want
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: got %d, want %s%d", name, got, op, want))
		}
	}
	return failures
}

// parseAssert splits one clause into its family name, operator and
// value. Two-character operators are tried first, so ">=" does not
// parse as ">" with a value of "=N".
func parseAssert(clause string) (name, op string, want int64, err error) {
	for _, o := range []string{">=", "<=", "==", "!=", ">", "<"} {
		if i := strings.Index(clause, o); i > 0 {
			name, op = strings.TrimSpace(clause[:i]), o
			want, err = strconv.ParseInt(strings.TrimSpace(clause[i+len(o):]), 10, 64)
			if err != nil {
				err = fmt.Errorf("bad assertion %q: %v", clause, err)
			}
			return
		}
	}
	return "", "", 0, fmt.Errorf("bad assertion %q: want name<op>value with op in >= <= == != > <", clause)
}
