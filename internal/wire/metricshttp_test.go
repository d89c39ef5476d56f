package wire

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"continuum/internal/metrics"
	"continuum/internal/trace"
)

// TestMetricsMuxRoutes drives every path of the side port continuumd and
// continuum-router share: the Prometheus text, the liveness probe, the
// span store filtered to one trace, and no pprof unless asked for.
func TestMetricsMuxRoutes(t *testing.T) {
	m := metrics.NewRegistry()
	m.Counter("demo_total").Inc()
	spans := trace.NewSpanStore(16)
	kept := spans.StartSpan(trace.SpanContext{}, "svc", "kept", trace.KindServer)
	kept.End()
	spans.StartSpan(trace.SpanContext{}, "svc", "other", trace.KindServer).End()
	mux := metricsMux(m, spans, false)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "demo_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/debug/traces?trace=" + kept.Context().TraceID)
	if code != http.StatusOK || !strings.Contains(body, `"kept"`) || strings.Contains(body, `"other"`) {
		t.Fatalf("/debug/traces filtered = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without withPprof = %d, want 404", code)
	}
}
