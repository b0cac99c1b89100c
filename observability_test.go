package failscope

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"failscope/internal/obs"
	"failscope/internal/telemetry"
)

// observedStudyFingerprint runs the trimmed small study with an observer
// attached (or nil) at the given worker count, returning the same
// byte-exact fingerprint as the parallel determinism test plus the
// observer used. With an observer, the live-telemetry layer runs too: a
// history sampler snapshots the registry concurrently with the pipeline,
// and the final registry is pushed through the Prometheus encoder and its
// conformance parser — all pure observation, so the fingerprint must not
// move.
func observedStudyFingerprint(t *testing.T, parallelism int, o *Observer) string {
	t.Helper()
	study := SmallStudy().WithParallelism(parallelism).WithObserver(o)
	var hist *telemetry.History
	if o != nil {
		hist = telemetry.NewHistory(o.Metrics().Snapshot, time.Millisecond)
		hist.Start()
	}
	res, err := study.Run()
	if hist != nil {
		hist.Stop()
	}
	if err != nil {
		t.Fatal(err)
	}
	// Fidelity scoring is pure observation: run it before fingerprinting so
	// any leakage into the pipeline output would show up as a diff.
	if o != nil {
		if sb := ScoreFidelity(res, o); sb == nil || len(sb.Bands) == 0 {
			t.Fatal("fidelity scoreboard empty on an observed run")
		}
		hist.Record(time.Now())
		if hist.Len() < 1 {
			t.Fatal("history sampler recorded nothing during the observed run")
		}
		var page bytes.Buffer
		if err := telemetry.WriteExport(&page, o.Metrics().Export(), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.ParseMetrics(bytes.NewReader(page.Bytes())); err != nil {
			t.Fatalf("observed-run /metrics page failed conformance: %v\n%s", err, page.String())
		}
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, res.Field.Data); err != nil {
		t.Fatal(err)
	}
	if err := WriteMonitor(&buf, res.Field.Monitor); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(res.RenderReport())
	return buf.String()
}

// TestObservedStudyByteIdentical enforces the cardinal rule of the
// observability layer: attaching an Observer — with the structured logger
// emitting at debug level and the fidelity scoreboard computed afterwards
// — must not change a single byte of any stage's output, at any worker
// count. It also checks the recorded span tree actually covers the
// pipeline (all three top stages, ≥10 named sub-stages) and that the
// machine-readable run report round-trips.
func TestObservedStudyByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small study several times")
	}
	ref := observedStudyFingerprint(t, 1, nil)
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, p := range workerCounts {
		log, err := NewLogger(io.Discard, "debug", "json")
		if err != nil {
			t.Fatal(err)
		}
		o := NewObserver("observed-study").WithLogger(log)
		got := observedStudyFingerprint(t, p, o)
		if got != ref {
			i := 0
			for i < len(got) && i < len(ref) && got[i] == ref[i] {
				i++
			}
			lo := i - 100
			if lo < 0 {
				lo = 0
			}
			end := func(s string) int {
				if i+100 < len(s) {
					return i + 100
				}
				return len(s)
			}
			t.Fatalf("parallelism %d with observer diverges from the unobserved reference at byte %d:\nref: …%q…\nobs: …%q…",
				p, i, ref[lo:end(ref)], got[lo:end(got)])
		}
		o.Finish()

		rep := o.RunReport()
		if rep == nil || rep.Spans == nil {
			t.Fatalf("parallelism %d: no run report", p)
		}
		for _, stage := range []string{"generate", "collect", "analyze"} {
			if rep.Spans.Find(stage) == nil {
				t.Fatalf("parallelism %d: span tree missing top-level stage %q:\n%s", p, stage, o.Tree())
			}
		}
		// Sub-stages: everything below the three top-level stage spans.
		subs := rep.Spans.NumSpans() - 4 // root + generate + collect + analyze
		if subs < 10 {
			t.Fatalf("parallelism %d: only %d sub-stage spans recorded, want >= 10:\n%s", p, subs, o.Tree())
		}
		for _, sub := range []string{"topology", "tickets", "monitoring", "classify", "kmeans-lloyd", "monitoring-join", "recurrence"} {
			if rep.Spans.Find(sub) == nil {
				t.Fatalf("parallelism %d: span tree missing sub-stage %q:\n%s", p, sub, o.Tree())
			}
		}

		// The quality and fidelity sections ride along in the run report.
		sb := ScoreFidelity(&Result{Report: nil}, o)
		rep.Quality = sb.Quality
		rep.Fidelity = sb

		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ReadRunReport(&js)
		if err != nil {
			t.Fatal(err)
		}
		if back.Name != rep.Name || back.Spans.NumSpans() != rep.Spans.NumSpans() || len(back.Metrics) != len(rep.Metrics) {
			t.Fatalf("parallelism %d: run report did not round-trip: %d spans / %d metrics vs %d / %d",
				p, back.Spans.NumSpans(), len(back.Metrics), rep.Spans.NumSpans(), len(rep.Metrics))
		}
		if back.Quality == nil || back.Fidelity == nil {
			t.Fatalf("parallelism %d: quality/fidelity sections lost in the run-report round-trip", p)
		}

		// Deterministic pipeline metrics must not depend on the worker count.
		for _, name := range []string{"dcsim.tickets", "ingest.tickets_in_window", "core.machines", "ingest.join_hits", "textmine.cluster_purity"} {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("parallelism %d: metric %q missing from run report", p, name)
			}
		}
	}
}
