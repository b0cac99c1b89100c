package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"failscope/internal/obs"
)

// TestHistoryRingEviction: the ring stays bounded — recording more
// points than its capacity keeps exactly the newest historyCapacity points
// and counts every eviction.
func TestHistoryRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHistory(reg.Snapshot, time.Second)
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

	const recorded = historyCapacity + 6
	for i := 0; i < recorded; i++ {
		reg.Set("tick", float64(i))
		h.Record(base.Add(time.Duration(i) * time.Second))
	}

	if h.Len() != historyCapacity {
		t.Fatalf("Len = %d, want %d", h.Len(), historyCapacity)
	}
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics/history?last=1", nil))
	var env struct {
		Evicted int64 `json:"evicted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("history JSON: %v", err)
	}
	if env.Evicted != 6 {
		t.Errorf("evicted = %d, want 6", env.Evicted)
	}
	pts := h.Points(0, "")
	if len(pts) != historyCapacity {
		t.Fatalf("Points = %d, want %d", len(pts), historyCapacity)
	}
	for i, p := range pts {
		wantTick := float64(6 + i) // the newest historyCapacity ticks
		if p.Metrics["tick"] != wantTick {
			t.Errorf("point %d tick = %v, want %v", i, p.Metrics["tick"], wantTick)
		}
		if want := base.Add(time.Duration(6+i) * time.Second); !p.Time.Equal(want) {
			t.Errorf("point %d time = %v, want %v", i, p.Time, want)
		}
	}

	// last=N returns the newest N, oldest first.
	lastTwo := h.Points(2, "")
	if len(lastTwo) != 2 || lastTwo[0].Metrics["tick"] != recorded-2 || lastTwo[1].Metrics["tick"] != recorded-1 {
		t.Errorf("Points(2) = %+v", lastTwo)
	}
}

// TestHistorySamplerStartStop: the background sampler records on cadence
// and stops cleanly.
func TestHistorySamplerStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("alive", 1)
	h := NewHistory(reg.Snapshot, 5*time.Millisecond)
	h.Start()
	h.Start() // double Start is a no-op, not a second goroutine
	deadline := time.Now().Add(5 * time.Second)
	for h.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	h.Stop()
	n := h.Len()
	if n < 2 {
		t.Fatalf("sampler recorded %d points, want >= 2", n)
	}
	time.Sleep(20 * time.Millisecond)
	if h.Len() != n {
		t.Errorf("sampler still recording after Stop: %d -> %d", n, h.Len())
	}
	h.Stop() // idempotent
}

// TestHistoryHandler: windowed JSON with last/prefix filters and method
// enforcement.
func TestHistoryHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Set("stream.events", 10)
	reg.Set("serve.requests", 3)
	h := NewHistory(reg.Snapshot, time.Second)
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		h.Record(now.Add(time.Duration(i) * time.Second))
	}

	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics/history?last=2&prefix=stream.", nil))
	var resp struct {
		IntervalSeconds float64        `json:"interval_seconds"`
		Capacity        int            `json:"capacity"`
		Points          int            `json:"points"`
		Snapshots       []HistoryPoint `json:"snapshots"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("history JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.Points != 2 || len(resp.Snapshots) != 2 || resp.Capacity != historyCapacity || resp.IntervalSeconds != 1 {
		t.Fatalf("envelope = %+v", resp)
	}
	for _, p := range resp.Snapshots {
		if _, ok := p.Metrics["stream.events"]; !ok {
			t.Errorf("prefix filter dropped stream.events: %+v", p.Metrics)
		}
		if _, ok := p.Metrics["serve.requests"]; ok {
			t.Errorf("prefix filter kept serve.requests: %+v", p.Metrics)
		}
	}

	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/metrics/history", nil))
	if rec.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics/history?last=-1", nil))
	if rec.Code != 400 {
		t.Errorf("last=-1 status = %d, want 400", rec.Code)
	}

	// A nil history serves an empty window rather than panicking.
	rec = httptest.NewRecorder()
	(*History)(nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics/history", nil))
	if rec.Code != 200 {
		t.Errorf("nil history status = %d, want 200", rec.Code)
	}
}
