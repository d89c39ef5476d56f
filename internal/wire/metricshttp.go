package wire

import (
	"errors"
	"fmt"
	"net/http"

	"continuum/internal/metrics"
	"continuum/internal/trace"
)

// ServeMetrics is the HTTP side port of continuumd and continuum-router.
// It serves m in Prometheus text format on /metrics, a liveness probe on
// /healthz, and spans as JSON on /debug/traces (?trace=<id> filters to
// one trace). withPprof forwards /debug/pprof/ to http.DefaultServeMux,
// where a command that imports net/http/pprof has its handlers.
// Scrapes read consistent snapshots and never block the invoke path
// beyond the registry's per-metric locks. It blocks like
// http.ListenAndServe and returns nil once the server is closed.
func ServeMetrics(addr string, m *metrics.Registry, spans *trace.SpanStore, withPprof bool) error {
	if err := http.ListenAndServe(addr, metricsMux(m, spans, withPprof)); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// metricsMux routes ServeMetrics' paths.
func metricsMux(m *metrics.Registry, spans *trace.SpanStore, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		spans.WriteJSON(w, r.URL.Query().Get("trace"))
	})
	if withPprof {
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	return mux
}
