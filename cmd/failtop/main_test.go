package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"failscope/internal/obs"
	"failscope/internal/telemetry"
)

// fixturePage serves a small but complete exposition page through the real
// encoder, so the dashboard test exercises the same bytes failscoped emits.
func fixturePage(t *testing.T, ingested int64) http.Handler {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Add("serve.events_ingested", ingested)
	reg.Add(telemetry.Labeled("http.requests", "endpoint", "/v1/events"), 4)
	reg.Add(telemetry.Labeled("http.errors", "endpoint", "/v1/events", "code", "400"), 1)
	reg.Histogram(telemetry.Labeled("http.request_ms", "endpoint", "/v1/events"), 1, 10, 100).Observe(3)
	h := reg.Histogram("stream.apply_ms", 1, 10)
	h.Observe(0.5)
	h.Observe(2)
	sh := reg.Histogram("stream.snapshot_ms", 0.1, 1)
	sh.Observe(0.05)
	sh.Observe(0.2)
	sh.Observe(0.3)
	reg.Set("stream.watermark_unix_seconds", float64(time.Now().Add(-90*time.Second).Unix()))
	reg.Set("mempool.stream.batch.hits", 30)
	reg.Set("mempool.stream.batch.misses", 10)
	return telemetry.Handler(reg, nil)
}

// TestScrapeAndRender: a conformant page renders every dashboard section.
func TestScrapeAndRender(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", fixturePage(t, 500))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cur, err := scrape(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, nil, cur, ts.URL)
	page := out.String()

	for _, want := range []string{
		"ingest", "500 events", "/v1/events", "watermark lag 1m30s",
		"snapshot", "3 reads",
		"pool", "stream_batch", "75", // 30 hits / 40 = 75% hit rate
		"memory", "heap",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q:\n%s", want, page)
		}
	}
	// Engine apply quantiles surfaced from the histogram's sketch.
	if math.IsNaN(cur.value("stream_apply_ms_p50")) {
		t.Error("stream_apply_ms_p50 missing from scrape")
	}
	if strings.Contains(page, "reads    p50 -") {
		t.Errorf("snapshot quantile did not render from the histogram:\n%s", page)
	}
}

// TestIngestRate: the events/s figure is the counter delta over elapsed
// wall time between two samples.
func TestIngestRate(t *testing.T) {
	base := time.Now()
	mk := func(v float64, at time.Time) *sample {
		fams, err := telemetry.ParseMetrics(strings.NewReader(
			"# TYPE serve_events_ingested_total counter\nserve_events_ingested_total " +
				strconv.FormatFloat(v, 'g', -1, 64) + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		return &sample{at: at, fams: fams}
	}
	prev := mk(100, base)
	cur := mk(350, base.Add(5*time.Second))
	if got := rate(prev, cur, "serve_events_ingested_total"); got != 50 {
		t.Errorf("rate = %v, want 50 ev/s", got)
	}
	if got := rate(nil, cur, "serve_events_ingested_total"); !math.IsNaN(got) {
		t.Errorf("first-frame rate = %v, want NaN", got)
	}
}

// TestAlertsPane: a page carrying the detect_* families grows the alerts
// pane, with lead-time quantiles rendered as durations.
func TestAlertsPane(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("serve.events_ingested", 10)
	reg.Set("detect.alerts_active", 3)
	reg.Add("detect.alerts_raised", 7)
	reg.Add("detect.alerts_cleared", 4)
	reg.Set("detect.alerts_confirmed", 3)
	reg.Set("detect.alerts_expired", 1)
	reg.Set("detect.machines", 120)
	h := reg.Histogram("detect.lead_time_ms", 3600e3, 86400e3, 864000e3)
	h.Observe(10 * 86400e3) // one 10-day lead
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(reg, nil))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cur, err := scrape(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, nil, cur, ts.URL)
	page := out.String()
	for _, want := range []string{
		"alerts", "3 active", "7 raised", "4 cleared", "120 machines",
		"3 confirmed", "1 expired", "lead p50",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("alerts pane missing %q:\n%s", want, page)
		}
	}
	if strings.Contains(page, "lead p50 -") {
		t.Errorf("lead-time quantile did not render from the histogram:\n%s", page)
	}
}

// TestRenderWithoutDetection: a page with no detect_* families must not
// grow an alerts pane — the dashboard degrades to the pre-detection layout.
func TestRenderWithoutDetection(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", fixturePage(t, 5))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cur, err := scrape(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, nil, cur, ts.URL)
	if strings.Contains(out.String(), "alerts") {
		t.Errorf("alerts pane rendered without detect_* families:\n%s", out.String())
	}
}

// TestScrapeRejectsEmptyPage: an exposition page with zero families means
// the daemon is misconfigured — -once must exit non-zero, not render an
// empty dashboard.
func TestScrapeRejectsEmptyPage(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := scrape(http.DefaultClient, ts.URL); err == nil {
		t.Fatal("scrape accepted an empty exposition page")
	}
}

// TestScrapeRejectsNonConformantPage: failtop must exit non-zero on a bad
// page — that's the CI gate.
func TestScrapeRejectsNonConformantPage(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if _, err := scrape(http.DefaultClient, ts.URL); err == nil {
		t.Fatal("scrape accepted a non-cumulative histogram")
	}
}

// TestScrapeSurfacesHTTPErrors: a 500 from the daemon is an error, not an
// empty dashboard.
func TestScrapeSurfacesHTTPErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := scrape(http.DefaultClient, ts.URL); err == nil {
		t.Fatal("scrape accepted a 500")
	}
}
