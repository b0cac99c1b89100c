package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"failscope/internal/obs"
)

// SpanRecord is one timed step inside a request (decode, group-commit,
// engine-apply, ...).
type SpanRecord struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// RequestRecord is one completed request as kept in the slow/errored ring.
type RequestRecord struct {
	ID         string       `json:"id"`
	Method     string       `json:"method"`
	Endpoint   string       `json:"endpoint"`
	Status     int          `json:"status"`
	Error      string       `json:"error,omitempty"`
	Start      time.Time    `json:"start"`
	DurationMS float64      `json:"duration_ms"`
	Spans      []SpanRecord `json:"spans,omitempty"`
	Items      int          `json:"items,omitempty"`
}

// Active is the in-flight request trace handed to handlers through the
// request context. All methods are nil-safe so un-traced code paths (unit
// tests hitting handlers directly) cost one pointer test.
type Active struct {
	mu  sync.Mutex
	rec RequestRecord
}

// StartSpan begins a named span and returns its end function. Spans are
// appended in end order.
func (a *Active) StartSpan(name string) func() {
	if a == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { a.AddSpan(name, time.Since(t0)) }
}

// AddSpan records an already-measured span (used when the duration comes
// from elsewhere, e.g. the engine's group-commit leader).
func (a *Active) AddSpan(name string, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Spans = append(a.rec.Spans, SpanRecord{Name: name, DurationMS: float64(d) / float64(time.Millisecond)})
	a.mu.Unlock()
}

// SetError attaches the handler's error message to the trace.
func (a *Active) SetError(msg string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Error = msg
	a.mu.Unlock()
}

// SetItems records how many items (events, rows) the request carried.
func (a *Active) SetItems(n int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Items = n
	a.mu.Unlock()
}

type activeKey struct{}

// ActiveFrom returns the in-flight trace attached to the context (nil when
// the request was not routed through Tracer.Wrap — all Active methods
// no-op then).
func ActiveFrom(ctx context.Context) *Active {
	a, _ := ctx.Value(activeKey{}).(*Active)
	return a
}

// durationBucketsMS are the per-endpoint request-latency histogram bounds,
// in milliseconds.
var durationBucketsMS = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// Tracer instruments an HTTP surface: it assigns monotonic (RNG-free)
// trace IDs, records per-endpoint RED metrics into the registry — request
// counters, labeled error counters, and a latency histogram whose
// sketch-backed p50/p95/p99 surface in /metrics — and keeps a bounded ring
// of slow or errored requests for /debug/requests. Nil-safe: a nil Tracer
// passes handlers through untouched.
type Tracer struct {
	reg    *obs.Registry
	slow   time.Duration // requests at or above enter the ring; 0 = all
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []RequestRecord
	head, n int
	total   int64
	errored int64
	slowN   int64
}

// traceCapacity bounds the slow/errored request ring.
const traceCapacity = 128

// NewTracer builds a tracer over the registry. slow is the duration at or
// above which a successful request is retained (0 retains every request;
// errored requests are always retained).
func NewTracer(reg *obs.Registry, slow time.Duration) *Tracer {
	return &Tracer{reg: reg, slow: slow, ring: make([]RequestRecord, traceCapacity)}
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Wrap instruments one endpoint's handler. endpoint should be the route
// pattern (bounded cardinality), not the raw URL.
func (t *Tracer) Wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if t == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		a := &Active{rec: RequestRecord{
			ID:       fmt.Sprintf("req-%08x", t.nextID.Add(1)),
			Method:   r.Method,
			Endpoint: endpoint,
			Start:    time.Now(),
		}}
		w.Header().Set("X-Trace-Id", a.rec.ID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(context.WithValue(r.Context(), activeKey{}, a)))
		t.finish(a, sw.status, time.Since(a.rec.Start))
	}
}

// finish closes the trace: RED metrics plus ring admission.
func (t *Tracer) finish(a *Active, status int, d time.Duration) {
	a.mu.Lock()
	rec := a.rec
	a.mu.Unlock()
	rec.Status = status
	rec.DurationMS = float64(d) / float64(time.Millisecond)

	t.reg.Add(Labeled("http.requests", "endpoint", rec.Endpoint), 1)
	t.reg.Histogram(Labeled("http.request_ms", "endpoint", rec.Endpoint), durationBucketsMS...).
		Observe(rec.DurationMS)
	errored := status >= 400
	if errored {
		t.reg.Add(Labeled("http.errors",
			"endpoint", rec.Endpoint, "code", fmt.Sprint(status)), 1)
	}

	t.mu.Lock()
	t.total++
	if errored {
		t.errored++
	}
	slow := d >= t.slow
	if slow && t.slow > 0 {
		t.slowN++
	}
	if errored || slow {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % len(t.ring)
		if t.n < len(t.ring) {
			t.n++
		}
	}
	t.mu.Unlock()
}

// Records returns the retained requests, newest first.
func (t *Tracer) Records() []RequestRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RequestRecord, 0, t.n)
	for i := 1; i <= t.n; i++ {
		out = append(out, t.ring[(t.head-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// requestsResponse is the /debug/requests JSON envelope.
type requestsResponse struct {
	Total         int64           `json:"total"`
	Errored       int64           `json:"errored"`
	Slow          int64           `json:"slow"`
	SlowThreshold float64         `json:"slow_threshold_ms"`
	Capacity      int             `json:"capacity"`
	Requests      []RequestRecord `json:"requests"`
}

// Handler serves the slow/errored-request buffer as JSON, newest first.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, `{"error":"GET required"}`, http.StatusMethodNotAllowed)
			return
		}
		resp := requestsResponse{Requests: t.Records()}
		if resp.Requests == nil {
			resp.Requests = []RequestRecord{}
		}
		if t != nil {
			t.mu.Lock()
			resp.Total, resp.Errored, resp.Slow = t.total, t.errored, t.slowN
			resp.SlowThreshold = float64(t.slow) / float64(time.Millisecond)
			resp.Capacity = len(t.ring)
			t.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp) //nolint:errcheck // streaming response, nothing to do
	})
}
