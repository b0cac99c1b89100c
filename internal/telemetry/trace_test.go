package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"failscope/internal/obs"
)

// TestTracerREDMetricsAndRing drives a wrapped endpoint through success,
// error and slow paths and checks the RED metrics, the trace IDs and the
// ring admission policy.
func TestTracerREDMetricsAndRing(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, 20*time.Millisecond)

	handler := tr.Wrap("/v1/events", func(w http.ResponseWriter, r *http.Request) {
		a := ActiveFrom(r.Context())
		end := a.StartSpan("decode")
		end()
		switch r.URL.Query().Get("mode") {
		case "error":
			a.SetError("bad line")
			w.WriteHeader(http.StatusBadRequest)
		case "slow":
			time.Sleep(25 * time.Millisecond)
		}
	})

	for _, mode := range []string{"", "", "error", "slow"} {
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest("POST", "/v1/events?mode="+mode, nil))
		if rec.Header().Get("X-Trace-Id") == "" {
			t.Error("response missing X-Trace-Id")
		}
	}

	if got := reg.Counter(Labeled("http.requests", "endpoint", "/v1/events")).Value(); got != 4 {
		t.Errorf("request counter = %d, want 4", got)
	}
	if got := reg.Counter(Labeled("http.errors", "endpoint", "/v1/events", "code", "400")).Value(); got != 1 {
		t.Errorf("error counter = %d, want 1", got)
	}
	h := reg.Histogram(Labeled("http.request_ms", "endpoint", "/v1/events"))
	if h.Count() != 4 {
		t.Errorf("duration histogram count = %d, want 4", h.Count())
	}

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("ring keeps %d records, want 2 (1 errored + 1 slow): %+v", len(recs), recs)
	}
	// Newest first: the slow one, then the errored one.
	if recs[0].DurationMS < 20 || recs[0].Status != 200 {
		t.Errorf("newest record = %+v, want slow 200", recs[0])
	}
	if recs[1].Status != 400 || recs[1].Error != "bad line" {
		t.Errorf("errored record = %+v", recs[1])
	}
	for _, r := range recs {
		if len(r.Spans) != 1 || r.Spans[0].Name != "decode" {
			t.Errorf("record spans = %+v, want [decode]", r.Spans)
		}
		if !strings.HasPrefix(r.ID, "req-") {
			t.Errorf("trace ID %q not counter-derived", r.ID)
		}
	}
}

// TestTracerRingBounded: capacity is a hard bound under overflow.
func TestTracerRingBounded(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, 0) // slow=0: every request is retained
	handler := tr.Wrap("/x", func(w http.ResponseWriter, r *http.Request) {})
	const sent = traceCapacity + 6
	for i := 0; i < sent; i++ {
		handler(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}
	recs := tr.Records()
	if len(recs) != traceCapacity {
		t.Fatalf("ring length = %d, want %d", len(recs), traceCapacity)
	}
	// Newest first and IDs monotonic.
	newest, oldest := fmt.Sprintf("req-%08x", sent), fmt.Sprintf("req-%08x", sent-traceCapacity+1)
	if recs[0].ID != newest || recs[traceCapacity-1].ID != oldest {
		t.Errorf("ring kept %v .. %v, want %v .. %v", recs[0].ID, recs[traceCapacity-1].ID, newest, oldest)
	}
}

// TestRequestsHandler: /debug/requests serves the envelope with counters.
func TestRequestsHandler(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, 0)
	handler := tr.Wrap("/x", func(w http.ResponseWriter, r *http.Request) {
		ActiveFrom(r.Context()).SetItems(7)
		ActiveFrom(r.Context()).AddSpan("engine-apply", 3*time.Millisecond)
	})
	handler(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var resp requestsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.Total != 1 || resp.Capacity != traceCapacity || len(resp.Requests) != 1 {
		t.Fatalf("envelope = %+v", resp)
	}
	r0 := resp.Requests[0]
	if r0.Items != 7 || len(r0.Spans) != 1 || r0.Spans[0].Name != "engine-apply" {
		t.Errorf("record = %+v", r0)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/requests", nil))
	if rec.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

// TestNilTracerAndActive: nil receivers are inert, and Wrap on a nil
// tracer returns the handler untouched.
func TestNilTracerAndActive(t *testing.T) {
	var tr *Tracer
	called := false
	h := tr.Wrap("/x", func(w http.ResponseWriter, r *http.Request) {
		called = true
		a := ActiveFrom(r.Context()) // nil: not wrapped
		a.StartSpan("decode")()
		a.AddSpan("x", time.Millisecond)
		a.SetError("e")
		a.SetItems(1)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if !called {
		t.Fatal("nil tracer swallowed the handler")
	}
	if id := rec.Header().Get("X-Trace-Id"); id != "" {
		t.Errorf("nil tracer assigned trace ID %q", id)
	}
	if tr.Records() != nil {
		t.Error("nil tracer has records")
	}
}
