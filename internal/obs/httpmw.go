package obs

import (
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics instruments HTTP handlers with the standard serving
// signals: per-endpoint request counts split by status class, an
// in-flight gauge, and per-endpoint latency histograms. One instance is
// shared by every endpoint of a server; Wrap attaches it to a handler
// under a fixed endpoint label (use the route pattern, not the raw URL,
// to keep cardinality bounded).
type HTTPMetrics struct {
	requests *CounterVec   // {endpoint, code}
	inflight *Gauge        //
	seconds  *HistogramVec // {endpoint}
}

// NewHTTPMetrics registers the HTTP metric families under
// <prefix>_http_*.
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by endpoint and status class.", "endpoint", "code"),
		inflight: r.Gauge(prefix+"_http_in_flight_requests",
			"HTTP requests currently being served."),
		seconds: r.HistogramVec(prefix+"_http_request_seconds",
			"HTTP request latency by endpoint.", DefTimeBuckets, "endpoint"),
	}
}

// Wrap returns next instrumented under the given endpoint label.
func (m *HTTPMetrics) Wrap(endpoint string, next http.Handler) http.Handler {
	hist := m.seconds.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		hist.ObserveSince(start)
		m.inflight.Dec()
		m.requests.With(endpoint, codeClass(sw.status)).Inc()
	})
}

// Requests returns how many requests to endpoint have completed: the
// count of its latency histogram, which the middleware observes after the
// handler returns, so a request in flight is not yet counted.
func (m *HTTPMetrics) Requests(endpoint string) uint64 {
	return m.seconds.With(endpoint).Count()
}

// WrapFunc is Wrap for http.HandlerFunc.
func (m *HTTPMetrics) WrapFunc(endpoint string, next http.HandlerFunc) http.Handler {
	return m.Wrap(endpoint, next)
}

// statusWriter records the response status (200 when the handler never
// calls WriteHeader).
//
// microlint:owned — each instance wraps exactly one request's
// ResponseWriter and lives on that request's handler goroutine; the
// wrapper is never shared across requests.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// codeClass maps a status code to its Prometheus-conventional class label
// ("2xx", "4xx", …).
func codeClass(status int) string {
	if status < 100 || status > 599 {
		return strconv.Itoa(status)
	}
	return strconv.Itoa(status/100) + "xx"
}
