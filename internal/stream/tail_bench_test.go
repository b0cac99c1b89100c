package stream

import (
	"testing"
	"time"

	"failscope/internal/dcsim"
	"failscope/internal/detect"
	"failscope/internal/obs"
)

// BenchmarkGroupCommitTail replays the small study in 1,000-event batches
// into an engine configured as failscoped -scale small runs it (online
// detector, an observed registry) from one caller, so every ApplyTimed
// call is a group of one. It reports the engine's own apply time per group
// and the tail: the rest of the call, which is the work done under the
// engine lock after the batches apply plus the lock and queue handoff.
func BenchmarkGroupCommitTail(b *testing.B) {
	cfg := dcsim.SmallConfig()
	field, err := dcsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	events := EventsFromField(field.Data, field.Tickets, field.Monitor)
	const batch = 1000
	var apply, tail time.Duration
	groups := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := NewEngine(Config{
			Observation: cfg.Observation,
			FineWindow:  cfg.FineWindow,
			Observer:    obs.NewObserver("tail-bench"),
			Detector:    detect.New(detect.Config{}),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lo := 0; lo < len(events); lo += batch {
			t0 := time.Now()
			own, err := eng.ApplyTimed(events[lo:min(lo+batch, len(events))])
			if err != nil {
				b.Fatal(err)
			}
			apply += own
			tail += time.Since(t0) - own
			groups++
		}
	}
	b.ReportMetric(float64(apply.Microseconds())/float64(groups), "apply-us/group")
	b.ReportMetric(float64(tail.Microseconds())/float64(groups), "tail-us/group")
}
