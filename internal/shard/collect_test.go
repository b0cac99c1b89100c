package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"failscope/internal/detect"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

// collectStream is synthStream with usage samples: every machine reports
// CPU daily, and each machine's tickets come in bursts the detector below
// alerts on, so the stream.* and detect.* families all move.
func collectStream(nMachines, days int) []stream.Event {
	events := make([]stream.Event, 0, nMachines*(days+2))
	for i := 0; i < nMachines; i++ {
		events = append(events, mkMachine(i))
	}
	seq := 0
	for d := 0; d < days; d++ {
		at := testEpoch.Add(time.Duration(d) * 24 * time.Hour)
		for i := 0; i < nMachines; i++ {
			t := at.Add(time.Duration(i) * time.Minute)
			events = append(events, stream.Event{Type: "sample", ServerID: model.MachineID(fmt.Sprintf("m-%03d", i)),
				Metric: monitordb.MetricCPUUtil, Time: &t, Value: 0.3})
			if (d+i)%5 == 0 {
				events = append(events, mkTicket(3*seq, i, t)) // 3*seq: a crash ticket
				seq++
			}
		}
	}
	return append(events, mkAdvance(testWindow().End.Add(-time.Hour)))
}

// collectRouter builds an n-shard router the way failscoped does, with a
// detector per shard and one shared registry.
func collectRouter(t *testing.T, n int, o *obs.Observer) *Router {
	t.Helper()
	engines := make([]*stream.Engine, n)
	detectors := make([]*detect.Detector, n)
	for i := range engines {
		detectors[i] = detect.New(detect.Config{MinCrashes: 2, BurstWindow: 10 * 24 * time.Hour, Horizon: 6 * 24 * time.Hour})
		cfg := stream.Config{
			Observation: testWindow(),
			Observer:    o,
			Detector:    detectors[i],
		}
		if n > 1 {
			cfg.GaugeLabel = fmt.Sprint(i)
		}
		var err error
		if engines[i], err = stream.NewEngine(cfg); err != nil {
			t.Fatal(err)
		}
	}
	r, err := New(Options{Engines: engines, Detectors: detectors, Registry: o.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestGaugesPublishedOnRead pins that point-in-time gauges are published
// when the registry is read, not by the apply path: after group-committed
// ingest with no scrape in between, Snapshot, Export and a history point
// all carry the engine state — sequence, monitoring sample count and the
// detector's totals — at one and at two shards. A router built earlier on
// the same registry must leave none of its values behind.
func TestGaugesPublishedOnRead(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			o := obs.NewObserver("collect-test")
			reg := o.Metrics()
			stale := collectRouter(t, n, o)
			if err := stale.Apply(collectStream(30, 50)); err != nil {
				t.Fatal(err)
			}

			r := collectRouter(t, n, o)
			events := collectStream(12, 40)
			for lo := 0; lo < len(events); lo += 50 {
				if _, err := r.ApplyTimed(events[lo:min(lo+50, len(events))]); err != nil {
					t.Fatal(err)
				}
			}

			var dt detect.Totals
			for _, d := range r.detectors {
				dt.Add(d.Totals())
			}
			if dt.Raised == 0 || dt.Expired == 0 || dt.Confirmed == 0 {
				t.Fatalf("detector totals %+v: want raised, expired and confirmed alerts", dt)
			}
			want := map[string]float64{
				"stream.events":           float64(r.Seq()),
				"stream.machines":         12,
				"stream.monitor_samples":  12 * 40,
				"detect.alerts_raised":    float64(dt.Raised),
				"detect.alerts_cleared":   float64(dt.Confirmed + dt.Expired),
				"detect.alerts_confirmed": float64(dt.Confirmed),
				"detect.alerts_expired":   float64(dt.Expired),
				"detect.alerts_active":    float64(dt.Active),
				"detect.machines":         float64(dt.Machines),
			}
			if n > 1 {
				for i, e := range r.Engines() {
					want[telemetry.Labeled("stream.events", "shard", fmt.Sprint(i))] = float64(e.Seq())
				}
			}

			exported := map[string]float64{}
			for _, m := range reg.Export() {
				exported[m.Name] = m.Value
			}
			hist := telemetry.NewHistory(reg.Snapshot, time.Hour)
			hist.Record(time.Now())
			views := map[string]map[string]float64{
				"Snapshot": reg.Snapshot(),
				"Export":   exported,
				"history":  hist.Points(1, "")[0].Metrics,
			}
			for view, got := range views {
				for name, w := range want {
					if v, ok := got[name]; !ok || v != w {
						t.Errorf("%s: %s = %v (present %v), want %v", view, name, v, ok, w)
					}
				}
			}
		})
	}
}

// TestPublishMatchesSingleEngine requires a 4-shard router to publish the
// same unlabeled stream.* and detect.* values as one engine fed the same
// stream: the router sums the shard totals and publishes them through the
// same publishers the engine and its detector use. The apply-path
// families count commit groups and batches per engine, so they are the
// one legitimate difference.
func TestPublishMatchesSingleEngine(t *testing.T) {
	events := collectStream(16, 40)
	read := func(n int) map[string]float64 {
		o := obs.NewObserver("publish-test")
		r := collectRouter(t, n, o)
		if err := r.Apply(events); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for name, v := range o.Metrics().Snapshot() {
			if (strings.HasPrefix(name, "stream.") || strings.HasPrefix(name, "detect.")) &&
				!strings.HasPrefix(name, "stream.apply_") && !strings.Contains(name, "{") {
				out[name] = v
			}
		}
		return out
	}
	single, sharded := read(1), read(4)
	if single["detect.alerts_raised"] == 0 || single["stream.events"] == 0 {
		t.Fatalf("stream raised no alerts or applied nothing: %v", single)
	}
	if !reflect.DeepEqual(single, sharded) {
		for name := range single {
			if single[name] != sharded[name] {
				t.Errorf("%s: one engine %v, 4 shards %v", name, single[name], sharded[name])
			}
		}
		for name := range sharded {
			if _, ok := single[name]; !ok {
				t.Errorf("%s: published only by 4 shards (%v)", name, sharded[name])
			}
		}
	}
}
