package monitordb

import (
	"testing"
	"testing/quick"
	"time"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

var (
	epoch  = time.Date(2011, 7, 1, 0, 0, 0, 0, time.UTC)
	obsWin = model.Window{
		Start: time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC),
	}
)

func newDB() *DB { return New(epoch, 2*365*24*time.Hour) }

func TestAddAndAverage(t *testing.T) {
	db := newDB()
	id := model.MachineID("m1")
	for i := 0; i < 10; i++ {
		db.Add(id, MetricCPUUtil, Sample{Time: obsWin.Start.Add(time.Duration(i) * 24 * time.Hour), Value: float64(i)})
	}
	avg, ok := db.Average(id, MetricCPUUtil, obsWin)
	if !ok || avg != 4.5 {
		t.Fatalf("Average = %v, %v", avg, ok)
	}
	if _, ok := db.Average(id, MetricMemUtil, obsWin); ok {
		t.Fatal("Average on empty series reported ok")
	}
	if _, ok := db.Average("nope", MetricCPUUtil, obsWin); ok {
		t.Fatal("Average on unknown machine reported ok")
	}
}

func TestRetentionDropsOutOfRange(t *testing.T) {
	db := newDB()
	id := model.MachineID("m1")
	db.Add(id, MetricCPUUtil, Sample{Time: epoch.Add(-time.Hour), Value: 1})
	db.Add(id, MetricCPUUtil, Sample{Time: epoch.Add(3 * 365 * 24 * time.Hour), Value: 1})
	if _, ok := db.FirstSeen(id); ok {
		t.Fatal("out-of-retention samples were stored")
	}
}

func TestFirstSeen(t *testing.T) {
	db := newDB()
	id := model.MachineID("m1")
	late := obsWin.Start.Add(100 * 24 * time.Hour)
	early := obsWin.Start.Add(10 * 24 * time.Hour)
	db.Add(id, MetricCPUUtil, Sample{Time: late, Value: 1})
	db.Add(id, MetricMemUtil, Sample{Time: early, Value: 1})
	first, ok := db.FirstSeen(id)
	if !ok || !first.Equal(early) {
		t.Fatalf("FirstSeen = %v, %v", first, ok)
	}
}

func TestRollupConsistency(t *testing.T) {
	// Property: the average of rollup-bucket means weighted by bucket
	// sample count equals the overall average.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		db := newDB()
		id := model.MachineID("m")
		n := 50 + r.Intn(100)
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Float64() * 100
			sum += v
			at := obsWin.Start.Add(time.Duration(r.Intn(90*24)) * time.Hour)
			db.Add(id, MetricCPUUtil, Sample{Time: at, Value: v})
		}
		want := sum / float64(n)
		buckets := db.Rollup(id, MetricCPUUtil, obsWin, 7*24*time.Hour)
		// Weighted mean of buckets: recompute weights via Samples.
		var wsum, wtotal float64
		for _, b := range buckets {
			w := model.Window{Start: b.Time, End: b.Time.Add(7 * 24 * time.Hour)}
			cnt := len(db.Samples(id, MetricCPUUtil, w))
			wsum += b.Value * float64(cnt)
			wtotal += float64(cnt)
		}
		if wtotal == 0 {
			return false
		}
		got := wsum / wtotal
		return got > want-1e-9 && got < want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRollupEmptyAndInvalid(t *testing.T) {
	db := newDB()
	if got := db.Rollup("m", MetricCPUUtil, obsWin, time.Hour); got != nil {
		t.Errorf("rollup of empty series: %v", got)
	}
	db.Add("m", MetricCPUUtil, Sample{Time: obsWin.Start, Value: 1})
	if got := db.Rollup("m", MetricCPUUtil, obsWin, 0); got != nil {
		t.Errorf("rollup with zero bucket: %v", got)
	}
}

func TestSamplesSortedAndWindowed(t *testing.T) {
	db := newDB()
	id := model.MachineID("m")
	times := []time.Duration{72, 24, 48}
	for _, h := range times {
		db.Add(id, MetricNetKbps, Sample{Time: obsWin.Start.Add(h * time.Hour), Value: float64(h)})
	}
	db.Add(id, MetricNetKbps, Sample{Time: obsWin.End.Add(time.Hour), Value: 999})
	got := db.Samples(id, MetricNetKbps, obsWin)
	if len(got) != 3 {
		t.Fatalf("got %d samples", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("samples not sorted")
		}
	}
}

func TestOnOffCount(t *testing.T) {
	db := newDB()
	id := model.MachineID("vm")
	base := obsWin.Start
	// off at +1h, on at +2h  -> one off→on transition
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(1 * time.Hour), On: false})
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(2 * time.Hour), On: true})
	// off at +3h, on at +3h05 (same 15-min slot as the off? different slots)
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(3 * time.Hour), On: false})
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(3*time.Hour + 5*time.Minute), On: true})
	if got := db.OnOffCount(id, obsWin); got != 2 {
		t.Fatalf("OnOffCount = %d, want 2", got)
	}
}

func TestOnOffCountQuantization(t *testing.T) {
	db := newDB()
	id := model.MachineID("vm")
	base := obsWin.Start.Add(10 * time.Hour)
	// Two full off/on cycles inside one 15-minute slot look like one.
	db.AddPowerEvent(id, PowerEvent{Time: base, On: false})
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(2 * time.Minute), On: true})
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(4 * time.Minute), On: false})
	db.AddPowerEvent(id, PowerEvent{Time: base.Add(6 * time.Minute), On: true})
	if got := db.OnOffCount(id, obsWin); got != 1 {
		t.Fatalf("OnOffCount = %d, want 1 (15-min screening)", got)
	}
}

func TestOnOffCountWindowEdges(t *testing.T) {
	db := newDB()
	id := model.MachineID("vm")
	// Transition before the window sets the state; the on inside counts.
	db.AddPowerEvent(id, PowerEvent{Time: obsWin.Start.Add(-24 * time.Hour), On: false})
	db.AddPowerEvent(id, PowerEvent{Time: obsWin.Start.Add(time.Hour), On: true})
	w := model.Window{Start: obsWin.Start, End: obsWin.Start.Add(48 * time.Hour)}
	if got := db.OnOffCount(id, w); got != 1 {
		t.Fatalf("OnOffCount = %d, want 1", got)
	}
	if got := db.OnOffCount("unknown", w); got != 0 {
		t.Fatalf("OnOffCount(unknown) = %d", got)
	}
}

func TestPlacementAndConsolidation(t *testing.T) {
	db := newDB()
	month := time.Date(2012, 9, 1, 0, 0, 0, 0, time.UTC)
	db.SetPlacement("vm-1", "box-1", month)
	db.SetPlacement("vm-2", "box-1", month)
	db.SetPlacement("vm-3", "box-2", month)

	if host, ok := db.HostOf("vm-1", month.Add(5*24*time.Hour)); !ok || host != "box-1" {
		t.Fatalf("HostOf = %v, %v", host, ok)
	}
	if lvl, ok := db.ConsolidationLevel("vm-1", month); !ok || lvl != 2 {
		t.Fatalf("ConsolidationLevel = %d, %v", lvl, ok)
	}
	if lvl, ok := db.ConsolidationLevel("vm-3", month); !ok || lvl != 1 {
		t.Fatalf("ConsolidationLevel(vm-3) = %d, %v", lvl, ok)
	}
	if _, ok := db.ConsolidationLevel("vm-1", month.AddDate(0, 1, 0)); ok {
		t.Fatal("consolidation for month without placement reported ok")
	}
}

func TestPlacementUpdateMaintainsCounts(t *testing.T) {
	db := newDB()
	month := time.Date(2012, 9, 15, 0, 0, 0, 0, time.UTC) // mid-month input
	db.SetPlacement("vm-1", "box-1", month)
	db.SetPlacement("vm-2", "box-1", month)
	// Migrate vm-1 within the same month: box-1 count must drop to 1.
	db.SetPlacement("vm-1", "box-2", month)
	if lvl, _ := db.ConsolidationLevel("vm-2", month); lvl != 1 {
		t.Fatalf("after migration box-1 level = %d, want 1", lvl)
	}
	if lvl, _ := db.ConsolidationLevel("vm-1", month); lvl != 1 {
		t.Fatalf("after migration box-2 level = %d, want 1", lvl)
	}
}

func TestAvgConsolidation(t *testing.T) {
	db := newDB()
	m1 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	m2 := time.Date(2012, 9, 1, 0, 0, 0, 0, time.UTC)
	db.SetPlacement("vm-1", "box-1", m1)
	db.SetPlacement("vm-2", "box-1", m1)
	db.SetPlacement("vm-1", "box-1", m2) // alone in month 2
	avg, ok := db.AvgConsolidation("vm-1", obsWin)
	if !ok || avg != 1.5 {
		t.Fatalf("AvgConsolidation = %v, %v, want 1.5", avg, ok)
	}
	if _, ok := db.AvgConsolidation("vm-x", obsWin); ok {
		t.Fatal("AvgConsolidation for unknown VM reported ok")
	}
}

func TestMachinesList(t *testing.T) {
	db := newDB()
	db.Add("b", MetricCPUUtil, Sample{Time: obsWin.Start, Value: 1})
	db.Add("a", MetricCPUUtil, Sample{Time: obsWin.Start, Value: 1})
	got := db.Machines()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Machines = %v", got)
	}
}

func TestMetricStrings(t *testing.T) {
	if MetricCPUUtil.String() != "cpu_util" || Metric(99).String() == "" {
		t.Error("metric strings wrong")
	}
	if len(Metrics()) != 4 {
		t.Errorf("Metrics() = %d", len(Metrics()))
	}
}

// TestAddSeriesFirstSeenMatchesAdd: a batch whose samples arrive out of
// order, some outside the window, records the same first-seen instant as
// adding them one at a time, across successive batches.
func TestAddSeriesFirstSeenMatchesAdd(t *testing.T) {
	id := model.MachineID("m1")
	at := func(h int) time.Time { return obsWin.Start.Add(time.Duration(h) * time.Hour) }
	batches := [][]Sample{
		{{Time: at(30)}, {Time: at(10)}, {Time: epoch.Add(-time.Hour)}, {Time: at(20)}},
		{{Time: at(40)}, {Time: at(15)}},
		{{Time: at(50)}, {Time: at(5)}, {Time: at(8)}},
	}
	batched, single := newDB(), newDB()
	for i, b := range batches {
		batched.AddSeries(id, MetricCPUUtil, b)
		for _, s := range b {
			single.Add(id, MetricCPUUtil, s)
		}
		got, _ := batched.FirstSeen(id)
		want, _ := single.FirstSeen(id)
		if !got.Equal(want) {
			t.Fatalf("after batch %d: first seen %v, want %v", i, got, want)
		}
	}
}

// TestForEachIterationOrder checks the public iterators visit records in
// the same deterministic order the codec writes them.
func TestForEachIterationOrder(t *testing.T) {
	db := newDB()
	day := 24 * time.Hour
	db.Add("m2", MetricMemUtil, Sample{Time: epoch.Add(2 * day), Value: 2})
	db.Add("m1", MetricCPUUtil, Sample{Time: epoch.Add(day), Value: 1})
	db.Add("m1", MetricCPUUtil, Sample{Time: epoch, Value: 0})
	db.AddPowerEvent("m2", PowerEvent{Time: epoch.Add(day), On: false})
	db.SetPlacement("m1", "h1", epoch)

	var seen []string
	db.ForEachSeries(func(id model.MachineID, m Metric, samples []Sample) {
		seen = append(seen, string(id)+"/"+m.String())
		for i := 1; i < len(samples); i++ {
			if samples[i].Time.Before(samples[i-1].Time) {
				t.Fatalf("series %s/%s not time-sorted", id, m)
			}
		}
	})
	if len(seen) != 2 || seen[0] != "m1/cpu_util" || seen[1] != "m2/mem_util" {
		t.Fatalf("series order = %v", seen)
	}
	powerSeen := 0
	db.ForEachPower(func(id model.MachineID, evs []PowerEvent) {
		powerSeen += len(evs)
	})
	if powerSeen != 1 {
		t.Fatalf("power events seen = %d, want 1", powerSeen)
	}
	db.ForEachPlacement(func(vm model.MachineID, steps []PlacementStep) {
		if vm != "m1" || len(steps) != 1 || steps[0].Host != "h1" {
			t.Fatalf("placement iteration = %s %v", vm, steps)
		}
	})
}
