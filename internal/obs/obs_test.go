package obs

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"failscope/internal/par"
)

// TestNilReceiversNoOp exercises every method on nil spans, registries,
// metrics and observers: the library contract is that un-observed callers
// pay nothing and never panic.
func TestNilReceiversNoOp(t *testing.T) {
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	s.End()
	s.AddPool(par.Stats{Workers: 3, Busy: time.Second})
	s.AddItems(10)
	if s.Name() != "" || s.Wall() != 0 || s.Busy() != 0 || s.NumSpans() != 0 {
		t.Fatal("nil span leaked state")
	}
	if s.Tree() != "" || s.Report() != nil || s.Find("x") != nil || s.Children() != nil {
		t.Fatal("nil span rendered something")
	}

	var c *Counter
	c.Add(5)
	c.Inc()
	c.AdvanceTo(7)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var g *Gauge
	g.Set(3.14)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || !math.IsNaN(h.Mean()) {
		t.Fatal("nil histogram holds samples")
	}

	var r *Registry
	if r.Counter("a") != nil || r.Gauge("b") != nil || r.Histogram("c", 1, 2) != nil {
		t.Fatal("nil registry returned live metrics")
	}
	r.Add("a", 1)
	r.Set("b", 2)
	r.Publish("nil-registry-test")
	if len(r.Snapshot()) != 0 || r.Dump() != "" {
		t.Fatal("nil registry snapshot not empty")
	}

	var o *Observer
	if o.Start("s") != nil || o.Span() != nil || o.Metrics() != nil || o.Under(nil) != nil {
		t.Fatal("nil observer returned live handles")
	}
	o.Finish()
	o.Publish("nil-observer-test")
	if o.Tree() != "" || o.RunReport() != nil {
		t.Fatal("nil observer rendered something")
	}
}

// TestSpanNesting checks the tree structure, accounting accumulation and
// the rendered breakdown.
func TestSpanNesting(t *testing.T) {
	root := Root("run")
	gen := root.Child("generate")
	topo := gen.Child("topology")
	topo.AddPool(par.Stats{Workers: 4, Items: 100, Busy: 40 * time.Millisecond, MaxBusy: 12 * time.Millisecond})
	topo.AddPool(par.Stats{Workers: 2, Items: 50, Busy: 10 * time.Millisecond, MaxBusy: 6 * time.Millisecond})
	topo.AddItems(7)
	topo.End()
	events := gen.Child("events")
	events.AddItems(7)
	events.End()
	gen.End()
	an := root.Child("analyze")
	an.End()
	root.End()

	if got := root.NumSpans(); got != 5 {
		t.Fatalf("NumSpans = %d, want 5", got)
	}
	if root.Find("topology") != topo {
		t.Fatal("Find(topology) missed")
	}
	if root.Find("nope") != nil {
		t.Fatal("Find(nope) hit something")
	}
	if topo.Busy() != 50*time.Millisecond {
		t.Fatalf("topology busy = %v, want 50ms", topo.Busy())
	}

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "generate" || kids[1].Name() != "analyze" {
		t.Fatalf("children = %v, want [generate analyze]", kids)
	}

	tree := root.Tree()
	for _, want := range []string{"run", "  generate", "    topology", "    events", "  analyze", "x4", "157 items"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}

	rep := topo.Report()
	if rep.Workers != 4 || rep.Items != 157 || rep.BusyMS != 50 {
		t.Fatalf("span report = %+v", rep)
	}
	// Ending twice keeps the first wall time.
	wall := gen.Wall()
	time.Sleep(time.Millisecond)
	gen.End()
	if gen.Wall() != wall {
		t.Fatal("second End moved the wall clock")
	}
}

// TestRunReportJSONRoundTrip writes a report and reads it back.
func TestRunReportJSONRoundTrip(t *testing.T) {
	o := NewObserver("roundtrip")
	sp := o.Start("stage")
	sp.AddPool(par.Stats{Workers: 2, Items: 10, Busy: time.Millisecond, MaxBusy: time.Millisecond})
	sp.End()
	o.Metrics().Add("tickets", 42)
	o.Metrics().Set("rate", 1.5)
	o.Metrics().Histogram("lat", 1, 10).Observe(3)
	o.Finish()

	rep := o.RunReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Fatal("report file does not end in newline")
	}
	back, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "roundtrip" || back.Meta.GOMAXPROCS != rep.Meta.GOMAXPROCS {
		t.Fatalf("round-trip header mismatch: %+v", back)
	}
	if back.Meta.GoVersion == "" || back.Meta.NumCPU < 1 {
		t.Fatalf("round-trip meta incomplete: %+v", back.Meta)
	}
	if back.Spans.NumSpans() != 2 || back.Spans.Find("stage") == nil {
		t.Fatalf("round-trip spans mismatch: %+v", back.Spans)
	}
	if back.Metrics["tickets"] != 42 || back.Metrics["rate"] != 1.5 {
		t.Fatalf("round-trip metrics mismatch: %v", back.Metrics)
	}
	if back.Metrics["lat.count"] != 1 || back.Metrics["lat.le_10"] != 1 {
		t.Fatalf("round-trip histogram mismatch: %v", back.Metrics)
	}
	if _, err := ReadRunReport(strings.NewReader("{broken")); err == nil {
		t.Fatal("ReadRunReport accepted broken JSON")
	}
}

// TestConcurrentCounters hammers one registry from many goroutines; run
// under -race this is the data-race certification of the metric types.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("shared", 1)
				r.Counter("shared2").Inc()
				r.Set("gauge", float64(i))
				r.Histogram("hist", 250, 500, 750).Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("shared2").Value(); got != workers*perWorker {
		t.Fatalf("shared2 = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("hist").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
	snap := r.Snapshot()
	if snap["hist.le_250"] != workers*251 { // observations 0..250 inclusive
		t.Fatalf("hist.le_250 = %v, want %d", snap["hist.le_250"], workers*251)
	}
	dump := r.Dump()
	if !strings.Contains(dump, "shared 8000\n") {
		t.Fatalf("dump missing counter line:\n%s", dump)
	}
}

// TestCounterAdvanceTo: a counter advanced to running totals follows their
// maximum — raised by a larger total, never lowered by a smaller one, and
// still summing Adds made in between.
func TestCounterAdvanceTo(t *testing.T) {
	var c Counter
	for _, step := range []struct{ to, want int64 }{
		{5, 5}, {3, 5}, {5, 5}, {9, 9}, {0, 9},
	} {
		c.AdvanceTo(step.to)
		if got := c.Value(); got != step.want {
			t.Fatalf("AdvanceTo(%d) = %d, want %d", step.to, got, step.want)
		}
	}
	c.Add(2)
	c.AdvanceTo(10)
	if got := c.Value(); got != 11 {
		t.Fatalf("AdvanceTo below an Add = %d, want 11", got)
	}

	// Concurrent collectors publishing 1..n leave the counter at n.
	var shared Counter
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(1); v <= 1000; v++ {
				shared.AdvanceTo(v)
			}
		}()
	}
	wg.Wait()
	if got := shared.Value(); got != 1000 {
		t.Fatalf("concurrent AdvanceTo = %d, want 1000", got)
	}
}

// TestServeDebug boots the debug endpoint on a free port and fetches
// /debug/vars and the pprof index.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Add("debug_test_metric", 7)
	r.Publish("failscope-test")
	r.Publish("failscope-test") // duplicate publish must not panic

	addr, closeFn, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "debug_test_metric") {
		t.Fatalf("/debug/vars missing published registry:\n%s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", idx)
	}
}

// TestHistogramQuantiles covers the sketch-backed percentile estimates:
// snapshot entries, the Quantile accessor, and empty/nil behavior.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	snap := r.Snapshot()
	for _, tc := range []struct {
		key  string
		want float64
	}{
		{"lat.p50", 500}, {"lat.p95", 950}, {"lat.p99", 990},
	} {
		got, ok := snap[tc.key]
		if !ok {
			t.Fatalf("snapshot missing %s:\n%v", tc.key, snap)
		}
		if math.Abs(got-tc.want) > 25 { // 2.5% rank tolerance
			t.Errorf("%s = %v, want ≈%v", tc.key, got, tc.want)
		}
	}
	if got := h.Quantile(0.5); math.Abs(got-500) > 25 {
		t.Errorf("Quantile(0.5) = %v, want ≈500", got)
	}
	if !strings.Contains(r.Dump(), "lat.p50") {
		t.Error("Dump output missing percentile line")
	}

	// Empty histograms emit no entries at all — not even zero-valued
	// count/sum/bucket lines — and report NaN.
	empty := r.Histogram("empty", 1)
	for key := range r.Snapshot() {
		if strings.HasPrefix(key, "empty.") {
			t.Errorf("empty histogram emitted snapshot entry %s", key)
		}
	}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram Quantile should be NaN")
	}
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram Quantile should be NaN")
	}
}

// TestCollectRunsOnRead pins the collector contract: Snapshot, Export and
// Dump run the registered collectors first, in registration order, and a
// later registration under a key replaces the earlier one in place.
func TestCollectRunsOnRead(t *testing.T) {
	r := NewRegistry()
	live := 1.0
	r.Collect("a", func(r *Registry) { r.Set("a.value", live) })
	r.Collect("b", func(r *Registry) { r.Set("shared", 1) })
	r.Collect("c", func(r *Registry) { r.Set("shared", 2) }) // runs after b
	if got := r.Snapshot()["a.value"]; got != 1 {
		t.Errorf("Snapshot a.value = %v, want 1", got)
	}
	live = 2
	if got := r.Export(); len(got) != 2 || got[0].Name != "a.value" || got[0].Value != 2 {
		t.Errorf("Export = %+v, want a.value 2 first", got)
	}
	if got := r.Snapshot()["shared"]; got != 2 {
		t.Errorf("shared = %v, want 2 (collectors run in registration order)", got)
	}

	// Replacing "b" keeps its place: "c" still runs last.
	r.Collect("b", func(r *Registry) { r.Set("shared", 3) })
	if got := r.Snapshot()["shared"]; got != 2 {
		t.Errorf("after replacing b: shared = %v, want 2", got)
	}
	r.Collect("c", func(r *Registry) { r.Set("shared", 4) })
	if got := r.Snapshot()["shared"]; got != 4 {
		t.Errorf("after replacing c: shared = %v, want 4", got)
	}
	live = 4
	if !strings.Contains(r.Dump(), "a.value 4\n") {
		t.Errorf("Dump did not run the collectors:\n%s", r.Dump())
	}

	var nilReg *Registry
	nilReg.Collect("a", func(*Registry) { t.Error("collector ran on a nil registry") })
	nilReg.Snapshot()
}

// TestSnapshotFlattensExport pins Snapshot's key set and values over every
// metric shape: counters and gauges under their names, a labelled
// histogram expanded to
// .count/.sum/.le_<bound>/.le_inf/.p50/.p95/.p99, and nothing at all for a
// histogram that never observed a sample.
func TestSnapshotFlattensExport(t *testing.T) {
	r := NewRegistry()
	r.Add("ingest.events", 7)
	r.Set("stream.seq", 2.5)
	name := `serve.http_request_ms{endpoint="/v1/events"}`
	h := r.Histogram(name, 1e6, 0.5, 10)
	for _, v := range []float64{0.25, 5, 7, 2e6} {
		h.Observe(v)
	}
	r.Histogram("empty", 1)

	want := map[string]float64{
		"ingest.events":    7,
		"stream.seq":       2.5,
		name + ".count":    4,
		name + ".sum":      2_000_012.25,
		name + ".le_0.5":   1,
		name + ".le_10":    2,
		name + ".le_1e+06": 0,
		name + ".le_inf":   1,
		name + ".p50":      h.Quantile(0.5),
		name + ".p95":      h.Quantile(0.95),
		name + ".p99":      h.Quantile(0.99),
	}
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Errorf("Snapshot has %d keys, want %d:\n%v", len(got), len(want), got)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("Snapshot[%q] = %v (present %v), want %v", k, g, ok, v)
		}
	}
	if got[name+".p50"] != 6 { // midway between the middle samples 5 and 7
		t.Errorf("p50 = %v, want 6", got[name+".p50"])
	}
}
