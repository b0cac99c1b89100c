package telemetry

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"failscope/internal/obs"
)

// encode runs the registry through the exposition encoder and fails the
// test on error.
func encode(t *testing.T, reg *obs.Registry, help map[string]string) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteExport(&b, reg.Export(), help); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parse runs the conformance parser over an exposition page.
func parse(t *testing.T, page string) Families {
	t.Helper()
	fams, err := ParseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatalf("conformance parse failed:\n%s\nerror: %v", page, err)
	}
	return fams
}

// TestExpositionRoundTrip: counters, gauges and a labeled histogram must
// encode to a page the conformance parser accepts, with every value
// recoverable.
func TestExpositionRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("serve.events_ingested", 41)
	reg.Add(Labeled("http.requests", "endpoint", "/v1/events"), 3)
	reg.Add(Labeled("http.requests", "endpoint", "/healthz"), 2)
	reg.Add(Labeled("http.errors", "endpoint", "/v1/events", "code", "400"), 1)
	reg.Set("stream.watermark_unix_seconds", 1.5e9)
	h := reg.Histogram(Labeled("http.request_ms", "endpoint", "/v1/events"), 1, 5, 25)
	for _, v := range []float64{0.4, 0.6, 3, 7, 100} {
		h.Observe(v)
	}

	page := encode(t, reg, map[string]string{
		"serve.events_ingested": "events applied by the engine",
	})
	fams := parse(t, page)

	if got := fams.Value("serve_events_ingested_total"); got != 41 {
		t.Errorf("counter = %v, want 41", got)
	}
	if f := fams.Get("serve_events_ingested_total"); f == nil || f.Help != "events applied by the engine" {
		t.Errorf("help not carried: %+v", fams.Get("serve_events_ingested_total"))
	}
	if got := fams.Value("http_requests_total", "endpoint", "/v1/events"); got != 3 {
		t.Errorf("labeled counter = %v, want 3", got)
	}
	if got := fams.Value("http_errors_total", "endpoint", "/v1/events", "code", "400"); got != 1 {
		t.Errorf("error counter = %v, want 1", got)
	}
	if got := fams.Value("stream_watermark_unix_seconds"); got != 1.5e9 {
		t.Errorf("gauge = %v, want 1.5e9", got)
	}

	hist := fams.Get("http_request_ms")
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing or untyped: %+v", hist)
	}
	wantBuckets := map[string]float64{"1": 2, "5": 3, "25": 4, "+Inf": 5}
	for le, want := range wantBuckets {
		got := fams.Value("http_request_ms", "endpoint", "/v1/events", "le", le)
		if got != want {
			t.Errorf("bucket le=%s = %v, want %v", le, got, want)
		}
	}
	var sum, count float64 = math.NaN(), math.NaN()
	for _, s := range hist.Series {
		switch {
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if count != 5 || math.Abs(sum-111) > 1e-9 {
		t.Errorf("sum/count = %v/%v, want 111/5", sum, count)
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		v := fams.Value("http_request_ms_"+q, "endpoint", "/v1/events")
		if math.IsNaN(v) {
			t.Errorf("quantile %s missing from exposition", q)
		}
	}
}

// TestExpositionEscaping: help text and label values with backslashes,
// quotes and newlines must survive an encode → parse round trip.
func TestExpositionEscaping(t *testing.T) {
	reg := obs.NewRegistry()
	tricky := "a\\b\"c\nd"
	reg.Add(Labeled("ingest.rejected", "reason", tricky), 7)
	help := map[string]string{"ingest.rejected": "first line\nsecond \\ line"}

	page := encode(t, reg, help)
	fams := parse(t, page)

	f := fams.Get("ingest_rejected_total")
	if f == nil {
		t.Fatalf("family missing:\n%s", page)
	}
	if f.Help != "first line\nsecond \\ line" {
		t.Errorf("help round-trip = %q", f.Help)
	}
	if got := f.Gauge("reason", tricky); got != 7 {
		t.Errorf("labeled value with escapes = %v, want 7 (labels %+v)", got, f.Series)
	}
}

// TestExpositionNameSanitization: dotted names become legal identifiers;
// hostile names cannot produce an invalid page.
func TestExpositionNameSanitization(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("dcsim.scratch.hits", 2)
	reg.Set("1weird-name.with spaces", 3)
	page := encode(t, reg, nil)
	fams := parse(t, page)
	if got := fams.Value("dcsim_scratch_hits_total"); got != 2 {
		t.Errorf("sanitized counter = %v, want 2", got)
	}
	if got := fams.Value("_1weird_name_with_spaces"); got != 3 {
		t.Errorf("sanitized gauge = %v, want 3\n%s", got, page)
	}
}

// TestEmptyHistogramSuppressed: a histogram that never observed a sample
// must not appear in the exposition at all.
func TestEmptyHistogramSuppressed(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("serve.batch_events", 10, 100) // created, never observed
	reg.Add("serve.requests", 1)
	page := encode(t, reg, nil)
	if strings.Contains(page, "serve_batch_events") {
		t.Errorf("empty histogram leaked into exposition:\n%s", page)
	}
	fams := parse(t, page)
	if fams.Get("serve_batch_events") != nil {
		t.Error("empty histogram family parsed back")
	}
}

// TestParserRejectsNonConformantPages: the conformance parser must catch
// the failure classes the test matrix names.
func TestParserRejectsNonConformantPages(t *testing.T) {
	cases := map[string]string{
		"bad metric name":    "bad-name 1\n",
		"bad label name":     `m{bad-label="x"} 1` + "\n",
		"duplicate series":   "# TYPE m gauge\nm{a=\"1\"} 1\nm{a=\"1\"} 2\n",
		"duplicate TYPE":     "# TYPE m gauge\nm 1\n# TYPE m counter\n",
		"TYPE after samples": "m 1\n# TYPE m gauge\n",
		"unknown TYPE":       "# TYPE m sketch\nm 1\n",
		"negative counter":   "# TYPE m counter\nm -1\n",
		"unquoted label":     "m{a=1} 1\n",
		"unterminated label": `m{a="1} 1` + "\n",
		"missing value":      "m\n",
		"bad value":          "m abc\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" +
			`h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\n" +
			"h_sum 9\nh_count 5\n",
		"missing +Inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" +
			"h_sum 9\nh_count 5\n",
		"+Inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 3` + "\n" +
			`h_bucket{le="+Inf"} 4` + "\n" +
			"h_sum 9\nh_count 5\n",
	}
	for name, page := range cases {
		if _, err := ParseMetrics(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parser accepted invalid page:\n%s", name, page)
		}
	}
}

// TestParserAcceptsTimestampsAndComments: optional sample timestamps and
// free-form comments are part of the format.
func TestParserAcceptsTimestampsAndComments(t *testing.T) {
	page := "# a free-form comment\n# TYPE m gauge\nm{a=\"x\"} 1.5 1712345678901\n\nm2 +Inf\n"
	fams := parse(t, page)
	if got := fams.Value("m", "a", "x"); got != 1.5 {
		t.Errorf("timestamped sample = %v, want 1.5", got)
	}
	if got := fams.Value("m2"); !math.IsInf(got, 1) {
		t.Errorf("m2 = %v, want +Inf", got)
	}
}

// TestHandlerServesRuntimeMetrics: the HTTP handler adds live Go runtime
// gauges to the registry export and the page stays conformant.
func TestHandlerServesRuntimeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("stream.events", 9)
	rec := httptest.NewRecorder()
	Handler(reg, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	fams := parse(t, rec.Body.String())
	if got := fams.Value("stream_events_total"); got != 9 {
		t.Errorf("registry metric = %v, want 9", got)
	}
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "process_uptime_seconds"} {
		if v := fams.Value(name); math.IsNaN(v) || v <= 0 {
			t.Errorf("runtime metric %s = %v, want > 0", name, v)
		}
	}
}

// TestLabeledNameParsing pins the labels-in-name convention both ways.
func TestLabeledNameParsing(t *testing.T) {
	name := Labeled("http.requests", "endpoint", "/v1/events", "weird", `a"b\c`)
	base, labels := parseLabeledName(name)
	if base != "http.requests" || len(labels) != 2 {
		t.Fatalf("parseLabeledName(%q) = %q, %+v", name, base, labels)
	}
	if labels[0] != (Label{"endpoint", "/v1/events"}) || labels[1] != (Label{"weird", `a"b\c`}) {
		t.Errorf("labels = %+v", labels)
	}
	// Plain names pass through untouched.
	if base, labels := parseLabeledName("stream.events"); base != "stream.events" || labels != nil {
		t.Errorf("plain name mangled: %q %+v", base, labels)
	}
}
