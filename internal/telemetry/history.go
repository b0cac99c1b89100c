package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HistoryPoint is one registry snapshot at one instant.
type HistoryPoint struct {
	Time    time.Time          `json:"time"`
	Metrics map[string]float64 `json:"metrics"`
}

// History is the self-monitoring time-series ring: the full metrics
// registry is snapshotted on a cadence into a bounded in-memory ring, so
// the monitoring system finally monitors itself — a live daemon can serve
// the last N snapshots of its own counters as a windowed series without
// any external scraper. All methods are nil-safe; sampling is pure
// observation (the snapshot function only reads).
type History struct {
	mu       sync.Mutex
	snapshot func() map[string]float64
	interval time.Duration  // sampling cadence, fixed by NewHistory
	points   []HistoryPoint // ring storage, len == historyCapacity
	head     int            // next write slot
	n        int            // live points, <= len(points)
	evicted  int64
	stop     chan struct{}
	done     chan struct{}
}

// historyCapacity bounds the ring: one hour of 5s samples.
const historyCapacity = 720

// NewHistory builds a ring over the given snapshot function (typically
// (*obs.Registry).Snapshot). interval is the sampling cadence for Start
// (<= 0 takes 5s).
func NewHistory(snapshot func() map[string]float64, interval time.Duration) *History {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &History{
		snapshot: snapshot,
		interval: interval,
		points:   make([]HistoryPoint, historyCapacity),
	}
}

// Record takes one snapshot now, evicting the oldest point when the ring
// is full. Exposed so tests and non-daemon callers can sample manually.
func (h *History) Record(now time.Time) {
	if h == nil || h.snapshot == nil {
		return
	}
	snap := h.snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.points[h.head] = HistoryPoint{Time: now, Metrics: snap}
	h.head = (h.head + 1) % len(h.points)
	if h.n < len(h.points) {
		h.n++
	} else {
		h.evicted++
	}
}

// Start launches the background sampler. Safe to call on nil; calling
// Start twice without Stop is a no-op.
func (h *History) Start() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.stop != nil {
		h.mu.Unlock()
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	stop, done := h.stop, h.done
	h.mu.Unlock()
	go func() {
		defer close(done)
		for {
			t := time.NewTimer(h.interval)
			select {
			case <-stop:
				t.Stop()
				return
			case now := <-t.C:
				h.Record(now)
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Recorded
// points stay queryable. Safe to call on nil or when never started.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Len returns the number of live points (0 on nil).
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Points returns up to last points in oldest-to-newest order (last <= 0
// returns everything). When prefix is non-empty, each point's metric map
// is filtered to names with that prefix — the knob that keeps windowed
// JSON responses bounded when the registry is large.
func (h *History) Points(last int, prefix string) []HistoryPoint {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.n
	if last > 0 && last < n {
		n = last
	}
	out := make([]HistoryPoint, 0, n)
	for i := 0; i < n; i++ {
		// Oldest of the returned window first: walk backward from head.
		idx := (h.head - n + i + len(h.points)) % len(h.points)
		p := h.points[idx]
		if prefix != "" {
			filtered := make(map[string]float64)
			for k, v := range p.Metrics {
				if strings.HasPrefix(k, prefix) {
					filtered[k] = v
				}
			}
			p.Metrics = filtered
		}
		out = append(out, p)
	}
	return out
}

// historyResponse is the /v1/metrics/history JSON envelope.
type historyResponse struct {
	IntervalSeconds float64        `json:"interval_seconds"`
	Capacity        int            `json:"capacity"`
	Points          int            `json:"points"`
	Evicted         int64          `json:"evicted"`
	Snapshots       []HistoryPoint `json:"snapshots"`
}

// Handler serves the ring as windowed JSON: GET with optional ?last=N
// (newest N points) and ?prefix=stream. (metric-name filter). A nil
// History serves an empty window.
func (h *History) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, `{"error":"GET required"}`, http.StatusMethodNotAllowed)
			return
		}
		last := 0
		if s := r.URL.Query().Get("last"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, `{"error":"last must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			last = v
		}
		prefix := r.URL.Query().Get("prefix")
		resp := historyResponse{Snapshots: h.Points(last, prefix)}
		if h != nil {
			h.mu.Lock()
			resp.IntervalSeconds = h.interval.Seconds()
			resp.Capacity = len(h.points)
			resp.Evicted = h.evicted
			h.mu.Unlock()
		}
		resp.Points = len(resp.Snapshots)
		if resp.Snapshots == nil {
			resp.Snapshots = []HistoryPoint{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp) //nolint:errcheck // streaming response, nothing to do
	})
}
