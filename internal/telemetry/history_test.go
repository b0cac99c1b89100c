package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"failscope/internal/obs"
)

// TestHistoryRingEviction: the ring stays bounded — recording far more
// points than capacity keeps exactly the newest `capacity` points and
// counts every eviction.
func TestHistoryRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHistory(reg.Snapshot, time.Second, 4)
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

	for i := 0; i < 10; i++ {
		reg.Set("tick", float64(i))
		h.Record(base.Add(time.Duration(i) * time.Second))
	}

	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	if h.Evicted() != 6 {
		t.Errorf("Evicted = %d, want 6", h.Evicted())
	}
	pts := h.Points(0, "")
	if len(pts) != 4 {
		t.Fatalf("Points = %d, want 4", len(pts))
	}
	for i, p := range pts {
		wantTick := float64(6 + i) // newest 4 of 10 are ticks 6..9
		if p.Metrics["tick"] != wantTick {
			t.Errorf("point %d tick = %v, want %v", i, p.Metrics["tick"], wantTick)
		}
		if want := base.Add(time.Duration(6+i) * time.Second); !p.Time.Equal(want) {
			t.Errorf("point %d time = %v, want %v", i, p.Time, want)
		}
	}

	// last=N returns the newest N, oldest first.
	lastTwo := h.Points(2, "")
	if len(lastTwo) != 2 || lastTwo[0].Metrics["tick"] != 8 || lastTwo[1].Metrics["tick"] != 9 {
		t.Errorf("Points(2) = %+v", lastTwo)
	}
}

// TestHistorySamplerStartStop: the background sampler records on cadence
// and stops cleanly.
func TestHistorySamplerStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("alive", 1)
	h := NewHistory(reg.Snapshot, 5*time.Millisecond, 64)
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
	h := NewHistory(reg.Snapshot, time.Second, 8)
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
	if resp.Points != 2 || len(resp.Snapshots) != 2 || resp.Capacity != 8 || resp.IntervalSeconds != 1 {
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
