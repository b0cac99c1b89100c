// Command failtop is a polling terminal dashboard over a failscoped
// daemon's live telemetry: it scrapes /metrics on a cadence, validates the
// page with the exposition conformance parser, and renders ingest rate,
// engine batch-apply latency quantiles, per-endpoint request RED metrics,
// watermark lag, buffer-pool hit rates and the process memory footprint.
//
// Usage:
//
//	failtop [-addr localhost:8080] [-interval 2s]
//	failtop -addr localhost:8080 -once
//
// With -once it scrapes a single page, prints the dashboard without
// clearing the terminal and exits — non-zero when the scrape fails, the
// page fails conformance, or the exposition is empty, which makes it the
// CI scrape-smoke checker. When the daemon runs sharded (-shards N) a
// shards pane appears: per-shard event totals and rates and the
// snapshot-merge latency quantiles. When the daemon runs
// with online detection the dashboard adds an alerts pane: active/raised/
// cleared alert counts, confirm/expire resolution tallies and the
// lead-time quantiles. When it runs durably (-data-dir) a durability pane
// follows: WAL growth, live segment count, newest checkpoint sequence and
// fsync/checkpoint latency.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"failscope/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failtop:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "localhost:8080", "failscoped address to scrape")
		interval = flag.Duration("interval", 2*time.Second, "poll cadence")
		once     = flag.Bool("once", false, "scrape once, print without clearing the screen, exit non-zero on a non-conformant page")
	)
	flag.Parse()
	base := "http://" + *addr
	client := &http.Client{Timeout: 10 * time.Second}

	prev, err := scrape(client, base)
	if err != nil {
		return err
	}
	if *once {
		render(os.Stdout, nil, prev, base)
		return nil
	}

	fmt.Print("\x1b[2J") // clear once; each frame repaints from home
	for {
		fmt.Print("\x1b[H")
		render(os.Stdout, nil, prev, base)
		time.Sleep(*interval)
		cur, err := scrape(client, base)
		if err != nil {
			return err
		}
		fmt.Print("\x1b[H\x1b[2J")
		render(os.Stdout, prev, cur, base)
		prev = cur
		time.Sleep(*interval)
	}
}

// sample is one validated /metrics scrape with its wall-clock instant.
type sample struct {
	at   time.Time
	fams telemetry.Families
}

// scrape fetches and conformance-parses the daemon's /metrics page — any
// format violation is an error, so failtop doubles as a format checker.
func scrape(c *http.Client, base string) (*sample, error) {
	res, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(res.Body, 256))
		return nil, fmt.Errorf("GET /metrics: %s: %.100s", res.Status, body)
	}
	fams, err := telemetry.ParseMetrics(res.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics failed exposition conformance: %w", err)
	}
	if len(fams) == 0 {
		return nil, fmt.Errorf("/metrics returned an empty exposition page")
	}
	return &sample{at: time.Now(), fams: fams}, nil
}

// value returns the first finite value among the named series ("" labels),
// so the dashboard can prefer serve-level counters but fall back to the
// engine's.
func (s *sample) value(names ...string) float64 {
	for _, n := range names {
		if v := s.fams.Value(n); !math.IsNaN(v) {
			return v
		}
	}
	return math.NaN()
}

// rate computes the per-second delta of a counter between two samples.
func rate(prev, cur *sample, names ...string) float64 {
	if prev == nil {
		return math.NaN()
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return math.NaN()
	}
	p, c := prev.value(names...), cur.value(names...)
	if math.IsNaN(p) || math.IsNaN(c) {
		return math.NaN()
	}
	return (c - p) / dt
}

func fmtNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func fmtBytes(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

func fmtDur(seconds float64) string {
	if math.IsNaN(seconds) || seconds < 0 {
		return "-"
	}
	return time.Duration(seconds * float64(time.Second)).Truncate(time.Second).String()
}

// endpoints lists every endpoint label seen on the request counter,
// sorted, so the RED table is stable frame to frame.
func endpoints(s *sample) []string {
	f := s.fams.Get("http_requests_total")
	if f == nil {
		return nil
	}
	set := map[string]bool{}
	for _, sr := range f.Series {
		if ep := sr.Label("endpoint"); ep != "" {
			set[ep] = true
		}
	}
	out := make([]string, 0, len(set))
	for ep := range set {
		out = append(out, ep)
	}
	sort.Strings(out)
	return out
}

// histCount reads a histogram family's _count series (the _count sample
// lives inside the family, so Families.Value cannot reach it by name).
func histCount(s *sample, family string) float64 {
	f := s.fams.Get(family)
	if f == nil {
		return math.NaN()
	}
	for _, sr := range f.Series {
		if sr.Name == family+"_count" {
			return sr.Value
		}
	}
	return math.NaN()
}

// errorsFor sums every http_errors_total series for one endpoint across
// status codes.
func errorsFor(s *sample, endpoint string) float64 {
	f := s.fams.Get("http_errors_total")
	if f == nil {
		return 0
	}
	var sum float64
	for _, sr := range f.Series {
		if sr.Label("endpoint") == endpoint {
			sum += sr.Value
		}
	}
	return sum
}

// shardIDs lists the shard labels seen in the shard_events_total family,
// sorted numerically by the usual string trick (ids are small ints).
func shardIDs(s *sample) []string {
	f := s.fams.Get("shard_events_total")
	if f == nil {
		return nil
	}
	set := map[string]bool{}
	for _, sr := range f.Series {
		if id := sr.Label("shard"); id != "" {
			set[id] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// labeledRate is rate for one labeled series.
func labeledRate(prev, cur *sample, family, key, val string) float64 {
	if prev == nil {
		return math.NaN()
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return math.NaN()
	}
	p, c := prev.fams.Value(family, key, val), cur.fams.Value(family, key, val)
	if math.IsNaN(p) || math.IsNaN(c) {
		return math.NaN()
	}
	return (c - p) / dt
}

// pools lists the buffer pools seen in the mempool_* gauges, sorted.
func pools(s *sample) []string {
	set := map[string]bool{}
	for name := range s.fams {
		if strings.HasPrefix(name, "mempool_") && strings.HasSuffix(name, "_hits") {
			set[strings.TrimSuffix(strings.TrimPrefix(name, "mempool_"), "_hits")] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// render paints one dashboard frame. prev may be nil (first frame: rates
// show as "-").
func render(w io.Writer, prev, cur *sample, base string) {
	fmt.Fprintf(w, "failtop — %s — %s\n", base, cur.at.Format("15:04:05"))
	fmt.Fprintf(w, "uptime %s   goroutines %s   gc %s\n\n",
		fmtDur(cur.value("process_uptime_seconds")),
		fmtNum(cur.value("go_goroutines")),
		fmtNum(cur.value("go_gc_cycles_total")))

	// stream_events is the engine's total however events arrived (HTTP or
	// replay); the serve counter only covers the POST /v1/events path.
	ingested := cur.value("stream_events", "serve_events_ingested_total")
	fmt.Fprintf(w, "ingest     %12s events   %10s ev/s",
		fmtNum(ingested), fmtNum(rate(prev, cur, "stream_events", "serve_events_ingested_total")))
	if lag := cur.watermarkLag(); !math.IsNaN(lag) {
		fmt.Fprintf(w, "   watermark lag %s", fmtDur(lag))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "engine     %12s applies  p50 %sms  p95 %sms  p99 %sms\n\n",
		fmtNum(histCount(cur, "stream_apply_ms")),
		fmtNum(cur.value("stream_apply_ms_p50")),
		fmtNum(cur.value("stream_apply_ms_p95")),
		fmtNum(cur.value("stream_apply_ms_p99")))

	if eps := endpoints(cur); len(eps) > 0 {
		fmt.Fprintf(w, "%-22s %10s %8s %10s %10s %10s\n",
			"endpoint", "requests", "errors", "p50 ms", "p95 ms", "p99 ms")
		for _, ep := range eps {
			fmt.Fprintf(w, "%-22s %10s %8s %10s %10s %10s\n", ep,
				fmtNum(cur.fams.Value("http_requests_total", "endpoint", ep)),
				fmtNum(errorsFor(cur, ep)),
				fmtNum(cur.fams.Value("http_request_ms_p50", "endpoint", ep)),
				fmtNum(cur.fams.Value("http_request_ms_p95", "endpoint", ep)),
				fmtNum(cur.fams.Value("http_request_ms_p99", "endpoint", ep)))
		}
		fmt.Fprintln(w)
	}

	if ps := pools(cur); len(ps) > 0 {
		fmt.Fprintf(w, "%-22s %10s %10s %8s\n", "pool", "hits", "misses", "hit %")
		for _, p := range ps {
			hits := cur.value("mempool_" + p + "_hits")
			misses := cur.value("mempool_" + p + "_misses")
			pct := math.NaN()
			if total := hits + misses; total > 0 {
				pct = 100 * hits / total
			}
			fmt.Fprintf(w, "%-22s %10s %10s %7s%%\n", p, fmtNum(hits), fmtNum(misses), fmtNum(pct))
		}
		fmt.Fprintln(w)
	}

	if ids := shardIDs(cur); len(ids) > 0 {
		fmt.Fprintf(w, "%-22s %10s %10s\n", "shard", "events", "ev/s")
		for _, id := range ids {
			fmt.Fprintf(w, "%-22s %10s %10s\n", id,
				fmtNum(cur.fams.Value("shard_events_total", "shard", id)),
				fmtNum(labeledRate(prev, cur, "shard_events_total", "shard", id)))
		}
		fmt.Fprintf(w, "merge      %12s merges   p50 %sms  p95 %sms  p99 %sms\n\n",
			fmtNum(histCount(cur, "shard_merge_ms")),
			fmtNum(cur.value("shard_merge_ms_p50")),
			fmtNum(cur.value("shard_merge_ms_p95")),
			fmtNum(cur.value("shard_merge_ms_p99")))
	}

	if cur.fams.Get("detect_alerts_active") != nil {
		fmt.Fprintf(w, "alerts     %12s active   %10s raised (%s/s)   %s cleared   %s machines\n",
			fmtNum(cur.value("detect_alerts_active")),
			fmtNum(cur.value("detect_alerts_raised_total")),
			fmtNum(rate(prev, cur, "detect_alerts_raised_total")),
			fmtNum(cur.value("detect_alerts_cleared_total")),
			fmtNum(cur.value("detect_machines")))
		fmt.Fprintf(w, "           %12s confirmed   %7s expired   lead p50 %s  p95 %s\n\n",
			fmtNum(cur.value("detect_alerts_confirmed")),
			fmtNum(cur.value("detect_alerts_expired")),
			fmtDur(cur.value("detect_lead_time_ms_p50")/1e3),
			fmtDur(cur.value("detect_lead_time_ms_p95")/1e3))
	}

	if cur.fams.Get("durable_wal_bytes") != nil {
		fmt.Fprintf(w, "durable    %12s WAL (%s/s)   %s records   %s segments   checkpoint seq %s\n",
			fmtBytes(cur.value("durable_wal_bytes")),
			fmtBytes(rate(prev, cur, "durable_wal_bytes")),
			fmtNum(cur.value("durable_wal_records")),
			fmtNum(cur.value("durable_segments_live")),
			fmtNum(cur.value("durable_checkpoint_seq")))
		fmt.Fprintf(w, "           %12s fsyncs   p50 %sms  p99 %sms   %s checkpoints p99 %sms\n\n",
			fmtNum(histCount(cur, "durable_fsync_ms")),
			fmtNum(cur.value("durable_fsync_ms_p50")),
			fmtNum(cur.value("durable_fsync_ms_p99")),
			fmtNum(histCount(cur, "durable_checkpoint_ms")),
			fmtNum(cur.value("durable_checkpoint_ms_p99")))
	}

	fmt.Fprintf(w, "memory     heap %s   inuse %s   sys %s\n",
		fmtBytes(cur.value("go_memstats_heap_alloc_bytes")),
		fmtBytes(cur.value("go_memstats_heap_inuse_bytes")),
		fmtBytes(cur.value("go_memstats_sys_bytes")))
}

// watermarkLag is scrape time minus the engine's event-time watermark —
// how far behind "now" the replayed or live stream is.
func (s *sample) watermarkLag() float64 {
	wm := s.value("stream_watermark_unix_seconds")
	if math.IsNaN(wm) || wm <= 0 {
		return math.NaN()
	}
	return float64(s.at.Unix()) - wm
}
