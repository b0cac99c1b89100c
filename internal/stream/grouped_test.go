package stream

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"failscope/internal/detect"
	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// groupedTestConfig builds an engine config over the small-study window.
func groupedTestConfig(t *testing.T) Config {
	t.Helper()
	start, err := time.Parse(time.RFC3339, "2012-07-01T00:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	return Config{Observation: model.Window{Start: start, End: start.AddDate(1, 0, 0)}}
}

// TestApplyBatchingInvariant replays the same event stream as 1-, 512-
// and 5,000-event Apply calls and as one Apply of the whole stream, with
// and without a detector, and requires identical state images: how a
// caller batches the stream, and so how many groups it commits in, must
// not change the statistics or the detector's alerts.
func TestApplyBatchingInvariant(t *testing.T) {
	field, _, _ := smallBatch(t)
	events := EventsFromField(field.Data, field.Tickets, field.Monitor)

	for _, detected := range []bool{false, true} {
		t.Run(fmt.Sprintf("detector=%v", detected), func(t *testing.T) {
			image := func(batch int) []byte {
				cfg := groupedTestConfig(t)
				if detected {
					cfg.Detector = detect.New(detect.Config{})
				}
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(events); lo += batch {
					if err := eng.Apply(events[lo:min(lo+batch, len(events))]); err != nil {
						t.Fatal(err)
					}
				}
				var img bytes.Buffer
				if _, err := eng.WriteState(&img); err != nil {
					t.Fatal(err)
				}
				return img.Bytes()
			}

			whole := image(len(events))
			for _, batch := range []int{1, 512, 5000} {
				if got := image(batch); !bytes.Equal(got, whole) {
					t.Errorf("state images diverge: %d bytes in %d-event batches, %d in one batch",
						len(got), batch, len(whole))
				}
			}
		})
	}
}

// TestApplyGroupedConcurrent hammers Apply from many goroutines
// (the -race regression test for the leader/follower handoff) and checks
// nothing is lost or double-applied: every batch's events are counted
// exactly once and per-server ticket order is preserved within a batch.
func TestApplyGroupedConcurrent(t *testing.T) {
	eng, err := NewEngine(groupedTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := time.Parse(time.RFC3339, "2012-07-02T00:00:00Z")

	const workers = 8
	const batches = 20
	const perBatch = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := model.MachineID(fmt.Sprintf("S1-PM-%04d", w))
			mach := &model.Machine{ID: id, Kind: model.PM, System: 1, Created: base}
			if err := eng.Apply([]Event{{Type: "machine", Machine: mach}}); err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < batches; b++ {
				evs := make([]Event, 0, perBatch)
				for i := 0; i < perBatch; i++ {
					seq := b*perBatch + i
					opened := base.Add(time.Duration(seq) * time.Hour)
					evs = append(evs, Event{Type: "ticket", Ticket: &model.Ticket{
						ID: fmt.Sprintf("T%d-%d", w, seq), ServerID: id, System: 1,
						Opened: opened, Closed: opened.Add(30 * time.Minute),
						Description: "x", Resolution: "y", IsCrash: true,
					}})
				}
				if err := eng.Apply(evs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := eng.Snapshot()
	wantEvents := int64(workers * (1 + batches*perBatch))
	if snap.Events != wantEvents {
		t.Errorf("events = %d, want %d", snap.Events, wantEvents)
	}
	if want := int64(workers * batches * perBatch); snap.Tickets != want {
		t.Errorf("tickets = %d, want %d", snap.Tickets, want)
	}
	if snap.Machines != workers {
		t.Errorf("machines = %d, want %d", snap.Machines, workers)
	}
	// Tickets within each server arrive in order inside their batches and
	// batches are applied whole, so nothing may be flagged out of order.
	if snap.OutOfOrder != 0 {
		t.Errorf("outOfOrder = %d, want 0", snap.OutOfOrder)
	}
}

// TestIngestSteadyStateAllocs pins the server ingestion path — pooled wire
// decode plus ApplyBatchTimed — at its steady-state allocation cost. The
// json.Unmarshal reference (decodeJSONLOnly) pays ~14 allocations per event before the
// engine even sees the batch; the pooled path must stay under 4 per event
// end to end once pools are warm.
func TestIngestSteadyStateAllocs(t *testing.T) {
	eng, err := NewEngine(groupedTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := time.Parse(time.RFC3339, "2012-07-02T00:00:00Z")
	id := model.MachineID("S1-PM-0001")
	if err := eng.Apply([]Event{{Type: "machine", Machine: &model.Machine{
		ID: id, Kind: model.PM, System: 1, Created: base,
	}}}); err != nil {
		t.Fatal(err)
	}

	const perBatch = 64
	events := make([]Event, 0, perBatch)
	for i := 0; i < perBatch; i++ {
		at := base.Add(time.Duration(i) * 15 * time.Minute)
		events = append(events, Event{
			Type: "sample", ServerID: id,
			Metric: monitordb.MetricCPUUtil, Time: &at, Value: float64(i),
		})
	}
	var wire bytes.Buffer
	if err := EncodeJSONL(&wire, events); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()

	// Warm the pools and the engine's series state outside measurement.
	var rd bytes.Reader
	ingest := func() {
		rd.Reset(raw)
		b := GetBatch()
		defer b.Release()
		if _, err := b.DecodeJSONLInto(&rd); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyBatchTimed(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		ingest()
	}

	perEvent := testing.AllocsPerRun(100, ingest) / perBatch
	if perEvent > 4 {
		t.Errorf("ingest path allocates %.2f per event, want <= 4", perEvent)
	}
}
