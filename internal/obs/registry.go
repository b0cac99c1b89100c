package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"failscope/internal/sketch"
)

// Counter is a monotonically increasing integer metric. All methods are
// no-ops on a nil receiver and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AdvanceTo raises the counter to v and never lowers it: a collector that
// reads a running total publishes it this way, so the counter stays
// monotone without the collector remembering what it last published.
func (c *Counter) AdvanceTo(v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric. Nil-safe and concurrent-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric: counts per upper bound
// plus one overflow bucket, with total count and sum for mean queries, and
// a quantile sketch for p50/p95/p99 estimates independent of the bucket
// layout. Nil-safe and concurrent-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; counts has len(bounds)+1
	counts []int64
	sum    float64
	n      int64
	q      *sketch.Quantile // created on first Observe
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	if h.q == nil {
		h.q = sketch.NewQuantile(0)
	}
	h.q.Add(v)
	h.mu.Unlock()
}

// Quantile returns the estimated p-quantile of observed samples (NaN when
// empty, nil, or p outside [0, 1]).
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.q.Query(p)
}

// Count returns the number of samples observed (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the mean of observed samples (NaN when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// export copies the histogram's typed state for Export. A histogram that
// never observed a sample returns nil: zero-valued count/sum/bucket/quantile
// entries would only pollute RunReport diffs and scrapes.
func (h *Histogram) export() *HistogramData {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return nil
	}
	return &HistogramData{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
		P50:    h.q.Query(0.5),
		P95:    h.q.Query(0.95),
		P99:    h.q.Query(0.99),
	}
}

// Registry is a named metric store: counters, gauges and histograms keyed
// by dotted names ("ingest.join_hits"). The zero value is not usable; call
// NewRegistry. A nil *Registry is a full no-op — every lookup returns a
// nil metric whose methods do nothing — so un-instrumented callers pay one
// pointer test per metric touch.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// collectMu serializes reads that run the collectors: each Snapshot or
	// Export publishes and then reads as one step, so a concurrent read
	// cannot overwrite the values in between. It is never taken under mu.
	collectMu  sync.Mutex
	collectors []collector
}

// collector is one registered publisher (see Collect).
type collector struct {
	key string
	fn  func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil on a
// nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the first bounds).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// Add increments the named counter (convenience for one-shot call sites).
func (r *Registry) Add(name string, d int64) { r.Counter(name).Add(d) }

// Set sets the named gauge.
func (r *Registry) Set(name string, v float64) { r.Gauge(name).Set(v) }

// Collect registers fn to run at the start of every Snapshot and Export
// (and so every Dump, exposition scrape and run report): point-in-time
// values such as live-state gauges are published when the registry is
// read, not on every change. A later call with the same key replaces fn in
// place, so a component rebuilt on the same registry takes over its
// predecessor's families instead of leaving stale values behind.
// Collectors run in registration order, one read at a time, and must not
// read the registry themselves. No-op on a nil registry.
func (r *Registry) Collect(key string, fn func(*Registry)) {
	if r == nil {
		return
	}
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	for i := range r.collectors {
		if r.collectors[i].key == key {
			r.collectors[i].fn = fn
			return
		}
	}
	r.collectors = append(r.collectors, collector{key, fn})
}

// collectLocked runs the registered collectors; the caller holds
// collectMu.
func (r *Registry) collectLocked() {
	for _, c := range r.collectors {
		c.fn(r)
	}
}

// Snapshot returns every metric flattened to name → value: Export's
// entries, with each histogram expanded under its name to .count, .sum,
// .le_<bound>, .le_inf, .p50, .p95 and .p99. Empty (non-nil) map on a nil
// registry.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.Export() {
		h := m.Hist
		if h == nil {
			out[m.Name] = m.Value
			continue
		}
		out[m.Name+".count"] = float64(h.Count)
		out[m.Name+".sum"] = h.Sum
		for i, b := range h.Bounds {
			out[fmt.Sprintf("%s.le_%g", m.Name, b)] = float64(h.Counts[i])
		}
		out[m.Name+".le_inf"] = float64(h.Counts[len(h.Bounds)])
		out[m.Name+".p50"] = h.P50
		out[m.Name+".p95"] = h.P95
		out[m.Name+".p99"] = h.P99
	}
	return out
}

// MetricKind distinguishes the registry's three metric shapes in Export.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// HistogramData is a histogram's typed export: per-bucket (non-cumulative)
// counts aligned with the sorted upper Bounds plus one overflow bucket,
// exact Count/Sum, and the sketch-backed quantile estimates.
type HistogramData struct {
	Bounds        []float64 // sorted upper bounds; Counts has len(Bounds)+1
	Counts        []int64
	Count         int64
	Sum           float64
	P50, P95, P99 float64
}

// Metric is one registry entry in typed form. Value carries the counter or
// gauge reading; Hist is set only for KindHistogram.
type Metric struct {
	Name  string
	Kind  MetricKind
	Value float64
	Hist  *HistogramData
}

// Export returns every metric in typed form, sorted by name, after running
// the collectors. It is the registry's one read path: Snapshot flattens it,
// exposition encoders use its bucket structure. Histograms that never
// observed a sample are suppressed. Nil slice on a nil registry.
func (r *Registry) Export() []Metric {
	if r == nil {
		return nil
	}
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	r.collectLocked()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists {
		if hd := h.export(); hd != nil {
			out = append(out, Metric{Name: name, Kind: KindHistogram, Hist: hd})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dump renders the snapshot as sorted "name value" lines, one per metric.
func (r *Registry) Dump() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		v := snap[name]
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			fmt.Fprintf(&b, "%s %d\n", name, int64(v))
		} else {
			fmt.Fprintf(&b, "%s %g\n", name, v)
		}
	}
	return b.String()
}

// Publish exposes the registry under the given expvar name as a live JSON
// map (visible at /debug/vars once ServeDebug or any HTTP server with the
// expvar handler is up). Publishing the same name twice, or publishing
// from a nil registry, is a no-op — expvar itself panics on duplicates, so
// the guard makes republishing after flag re-parsing safe.
func (r *Registry) Publish(name string) {
	if r == nil || name == "" {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// publishMu serializes the check-then-publish against concurrent callers;
// expvar has no TryPublish.
var publishMu sync.Mutex
