package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"

	"outofssa/internal/obs"
)

// Handler returns the observability mux for a long-running process (the
// laocd roadmap item; ssabench/laoc serve it behind -metrics-addr):
//
//	/metrics        Prometheus text exposition of r
//	/metrics.json   the same snapshot in the JSON file schema
//	/debug/pprof/*  the standard profiling endpoints
//
// Snapshots are taken per request — scrapes observe live counters.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, r.Snapshot(), obs.HostInfo())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves Handler(r) in a background goroutine,
// returning the bound listener address (useful with ":0") and a stop
// function. Serving continues until stop is called or the process
// exits; serve errors after a successful bind are dropped — metrics
// exposition must never take down the compilation it observes.
func Serve(addr string, r *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(r)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
