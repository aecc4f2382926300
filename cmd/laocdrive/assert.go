package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"outofssa/internal/obs/metrics"
)

// scrape fetches the daemon's /metrics.json.
func scrape(url string) (*metrics.FileSnapshot, error) {
	resp, err := http.Get(url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics.json: %s", url, resp.Status)
	}
	return metrics.DecodeFile(resp.Body)
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
