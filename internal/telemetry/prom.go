// Package telemetry is the live-observability layer on top of
// internal/obs: a zero-dependency Prometheus text-exposition encoder (and
// the matching conformance parser), a bounded self-monitoring time-series
// ring over registry snapshots, and request-scoped tracing with
// per-endpoint RED metrics for the serving daemon.
//
// Like obs itself, everything here is pure observation: nil receivers are
// no-ops, nothing draws randomness (trace IDs come from an atomic
// counter), and nothing feeds back into the pipeline — so study output
// stays byte-identical with telemetry attached or detached at any worker
// count (enforced by TestObservedStudyByteIdentical at the repo root).
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"failscope/internal/obs"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// Labeled builds a registry metric name carrying labels, e.g.
//
//	Labeled("http.requests", "endpoint", "/v1/events")
//	→ `http.requests{endpoint="/v1/events"}`
//
// The exposition encoder parses the suffix back into Prometheus labels, so
// flat obs.Registry names gain label dimensions without changing the
// registry. kv alternates name, value; an odd tail is ignored. Values are
// escaped, so any string is safe.
func Labeled(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// parseLabeledName splits a registry name with an optional {k="v",...}
// suffix into its base and labels. Values may contain escaped quotes and
// backslashes. Malformed suffixes are treated as part of the base name
// (they will then fail the identifier sanitizer, not crash the encoder).
func parseLabeledName(name string) (base string, labels []Label) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:i]
	body := name[i+1 : len(name)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return name, nil
		}
		lname := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		j := 0
		for ; j < len(rest); j++ {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				switch rest[j+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[j+1])
				}
				j++
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if j >= len(rest) {
			return name, nil
		}
		labels = append(labels, Label{Name: lname, Value: val.String()})
		rest = rest[j+1:]
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return name, nil
		}
		body = rest[1:]
	}
	return base, labels
}

// promIdent sanitizes a dotted registry name into a legal Prometheus
// metric identifier: dots (and anything else outside [a-zA-Z0-9_:]) become
// underscores, and a leading digit gains an underscore prefix.
func promIdent(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelIdent sanitizes a label name ([a-zA-Z0-9_], no colons).
func promLabelIdent(s string) string {
	s = promIdent(s)
	return strings.ReplaceAll(s, ":", "_")
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// line is one encoded sample: an optional family-name suffix (_bucket,
// _sum, _count for histograms), the label set and the value.
type line struct {
	suffix string
	labels []Label
	value  float64
}

// family collects every sample line sharing one exposition family name.
type family struct {
	name  string
	kind  obs.MetricKind
	help  string
	lines []line
}

// labelString renders a label set as the {...} clause ("" when empty).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		parts = append(parts, promLabelIdent(l.Name)+`="`+escapeLabelValue(l.Value)+`"`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// withLabel returns labels plus one more, without mutating the input.
func withLabel(labels []Label, name, value string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Name: name, Value: value})
}

// WriteExport encodes typed metrics in the Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE line per family, then its
// samples. Counters gain a _total suffix; histograms expand into
// cumulative _bucket{le=...} series plus _sum/_count, and their
// sketch-backed quantile estimates ride along as <name>_p50/_p95/_p99
// gauge families. help maps a metric's base (dotted, pre-label) name to
// its HELP text; absent entries get a generated line.
func WriteExport(w io.Writer, metrics []obs.Metric, help map[string]string) error {
	fams := make(map[string]*family)
	order := []string{}
	get := func(name, base string, kind obs.MetricKind) *family {
		f := fams[name]
		if f == nil {
			h := help[base]
			if h == "" {
				h = "failscope metric " + base
			}
			f = &family{name: name, kind: kind, help: h}
			fams[name] = f
			order = append(order, name)
		}
		if f.kind != kind {
			return nil // name collision across kinds: first writer wins
		}
		return f
	}
	add := func(name, base string, kind obs.MetricKind, suffix string, labels []Label, value float64) {
		if f := get(name, base, kind); f != nil {
			f.lines = append(f.lines, line{suffix: suffix, labels: labels, value: value})
		}
	}

	// obs.Registry.Export is sorted by full (labeled) name, so appending in
	// input order keeps each family's series deterministic without a second
	// sort — and keeps every histogram label set's buckets ascending,
	// because they are appended bound by bound here.
	for _, m := range metrics {
		base, labels := parseLabeledName(m.Name)
		name := promIdent(base)
		switch m.Kind {
		case obs.KindCounter:
			add(name+"_total", base, obs.KindCounter, "", labels, m.Value)
		case obs.KindGauge:
			add(name, base, obs.KindGauge, "", labels, m.Value)
		case obs.KindHistogram:
			if m.Hist == nil {
				continue
			}
			h := m.Hist
			var cum int64
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				add(name, base, obs.KindHistogram, "_bucket",
					withLabel(labels, "le", formatValue(b)), float64(cum))
			}
			add(name, base, obs.KindHistogram, "_bucket",
				withLabel(labels, "le", "+Inf"), float64(h.Count))
			add(name, base, obs.KindHistogram, "_sum", labels, h.Sum)
			add(name, base, obs.KindHistogram, "_count", labels, float64(h.Count))
			add(name+"_p50", base, obs.KindGauge, "", labels, h.P50)
			add(name+"_p95", base, obs.KindGauge, "", labels, h.P95)
			add(name+"_p99", base, obs.KindGauge, "", labels, h.P99)
		}
	}

	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		f := fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, kindName(f.kind))
		for _, l := range f.lines {
			fmt.Fprintf(&b, "%s%s%s %s\n", f.name, l.suffix, labelString(l.labels), formatValue(l.value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func kindName(k obs.MetricKind) string {
	switch k {
	case obs.KindCounter:
		return "counter"
	case obs.KindGauge:
		return "gauge"
	case obs.KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// processStart anchors process_uptime_seconds. Observation-only.
var processStart = time.Now()

// runtimeMetrics samples the Go runtime into extra exposition gauges, so
// every /metrics scrape carries the process's live memory footprint
// alongside the pipeline registry.
func runtimeMetrics() []obs.Metric {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []obs.Metric{
		{Name: "go.goroutines", Kind: obs.KindGauge, Value: float64(runtime.NumGoroutine())},
		{Name: "go.memstats.heap_alloc_bytes", Kind: obs.KindGauge, Value: float64(ms.HeapAlloc)},
		{Name: "go.memstats.heap_inuse_bytes", Kind: obs.KindGauge, Value: float64(ms.HeapInuse)},
		{Name: "go.memstats.sys_bytes", Kind: obs.KindGauge, Value: float64(ms.Sys)},
		{Name: "go.gc_cycles", Kind: obs.KindCounter, Value: float64(ms.NumGC)},
		{Name: "process.uptime_seconds", Kind: obs.KindGauge, Value: time.Since(processStart).Seconds()},
	}
}

// Handler serves the registry (plus live Go runtime gauges) in the
// Prometheus text exposition format — the /metrics endpoint. help is
// optional (see WriteExport).
func Handler(reg *obs.Registry, help map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeExport(w, reg.Export(), help)
	})
}

// ServeExport writes a registry export (plus live Go runtime gauges) as a
// /metrics response, for handlers that read the export before answering —
// to set a header from it, say.
func ServeExport(w http.ResponseWriter, metrics []obs.Metric, help map[string]string) {
	metrics = append(metrics, runtimeMetrics()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// An error means the response is already streaming; nothing is
	// recoverable.
	_ = WriteExport(w, metrics, help)
}
