package main

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"outofssa/internal/obs/metrics"
)

func TestParseAssert(t *testing.T) {
	for _, tc := range []struct {
		clause string
		name   string
		op     string
		want   int64
		bad    bool
	}{
		// Two-character operators are matched before their one-character
		// prefixes, so ">=" never parses as ">" with a value of "=3".
		{clause: "a_total>=3", name: "a_total", op: ">=", want: 3},
		{clause: "a_total<=3", name: "a_total", op: "<=", want: 3},
		{clause: "a_total==0", name: "a_total", op: "==", want: 0},
		{clause: "a_total!=0", name: "a_total", op: "!=", want: 0},
		{clause: "a_total > 2", name: "a_total", op: ">", want: 2},
		{clause: "a_total<-1", name: "a_total", op: "<", want: -1},
		{clause: "a_total=3", bad: true},
		{clause: "==3", bad: true},
		{clause: "a_total>=three", bad: true},
	} {
		name, op, want, err := parseAssert(tc.clause)
		if tc.bad {
			if err == nil {
				t.Errorf("parseAssert(%q) = %q %q %d, want an error", tc.clause, name, op, want)
			}
			continue
		}
		if err != nil || name != tc.name || op != tc.op || want != tc.want {
			t.Errorf("parseAssert(%q) = %q %q %d, %v; want %q %q %d",
				tc.clause, name, op, want, err, tc.name, tc.op, tc.want)
		}
	}
}

func TestRunAsserts(t *testing.T) {
	snap := &metrics.FileSnapshot{Counters: []metrics.FileCounter{
		{Name: "laocd_requests_total", Labels: map[string]string{"kind": "ok"}, Value: 100},
		{Name: "laocd_requests_total", Labels: map[string]string{"kind": "parse"}, Value: 20},
		{Name: "laocd_worker_panics_total", Value: 0},
	}}
	for _, tc := range []struct {
		spec string
		want []string
	}{
		// A family's value is its sum across label sets.
		{spec: "laocd_requests_total==120, laocd_requests_total>100", want: nil},
		{spec: "laocd_requests_total<120", want: []string{"laocd_requests_total: got 120, want <120"}},
		{spec: "laocd_worker_panics_total==0,,", want: nil},
		// A family the snapshot does not hold fails, even on ==0.
		{spec: "laocd_decode_hits_total==0", want: []string{"laocd_decode_hits_total: no such counter family in the snapshot"}},
		// A malformed clause is reported, and the other clauses still run.
		{spec: "laocd_requests_total=120,laocd_worker_panics_total>0", want: []string{
			`bad assertion "laocd_requests_total=120": want name<op>value with op in >= <= == != > <`,
			"laocd_worker_panics_total: got 0, want >0",
		}},
	} {
		if got := runAsserts(snap, tc.spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("runAsserts(%q) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

// TestScrapeAsserts runs the clauses on a live /metrics.json, as
// laocdrive -n 0 -assert does against a daemon.
func TestScrapeAsserts(t *testing.T) {
	reg := metrics.New()
	reg.Counter("laocd_requests_total", metrics.L("kind", "ok")).Add(3)
	srv := httptest.NewServer(metrics.Handler(reg))
	defer srv.Close()
	snap, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := runAsserts(snap, "laocd_requests_total==3"); got != nil {
		t.Fatalf("live scrape: %q", got)
	}
	if _, err := scrape(srv.URL + "/nowhere"); err == nil {
		t.Fatal("a 404 scrape succeeded")
	}
}
