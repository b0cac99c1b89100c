package monitordb

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

// refStore replays the pre-columnar layout: every accepted sample in a
// plain slice, reads filtered per window and stably sorted by time (which
// is what the old sort-on-read produced for the arrival orders the system
// generates). The columnar store must match it sample for sample, bit for
// bit.
type refStore struct {
	times []time.Time
	vals  []float64
}

func (r *refStore) add(t time.Time, v float64) {
	r.times = append(r.times, t)
	r.vals = append(r.vals, v)
}

func (r *refStore) samples(w model.Window) []Sample {
	idx := make([]int, len(r.times))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.times[idx[a]].Before(r.times[idx[b]]) })
	var out []Sample
	for _, i := range idx {
		if w.Contains(r.times[i]) {
			out = append(out, Sample{Time: r.times[i], Value: r.vals[i]})
		}
	}
	return out
}

func (r *refStore) average(w model.Window) (float64, bool) {
	s := r.samples(w)
	if len(s) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, x := range s {
		sum += x.Value
	}
	return sum / float64(len(s)), true
}

func (r *refStore) rollup(w model.Window, bucket time.Duration) []Sample {
	type acc struct {
		sum float64
		n   int
	}
	buckets := make(map[int64]*acc)
	for _, s := range r.samples(w) {
		i := int64(s.Time.Sub(w.Start) / bucket)
		a := buckets[i]
		if a == nil {
			a = &acc{}
			buckets[i] = a
		}
		a.sum += s.Value
		a.n++
	}
	idxs := make([]int64, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]Sample, 0, len(idxs))
	for _, i := range idxs {
		a := buckets[i]
		out = append(out, Sample{Time: w.Start.Add(time.Duration(i) * bucket), Value: a.sum / float64(a.n)})
	}
	return out
}

func sameSamples(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) || got[i].Value != want[i].Value {
			t.Fatalf("%s: sample %d = (%v, %v), want (%v, %v)",
				what, i, got[i].Time, got[i].Value, want[i].Time, want[i].Value)
		}
	}
}

// checkAgainstRef compares every read path over a spread of windows,
// including windows whose edges land exactly on sample timestamps (the
// half-open boundary cases the validity bitmap must respect).
func checkAgainstRef(t *testing.T, db *DB, ref *refStore, id model.MachineID) {
	t.Helper()
	full := model.Window{Start: epoch.Add(-24 * time.Hour), End: epoch.Add(3 * 365 * 24 * time.Hour)}
	windows := []model.Window{full}
	if s := ref.samples(full); len(s) > 0 {
		first, last := s[0].Time, s[len(s)-1].Time
		windows = append(windows,
			model.Window{Start: first, End: last},                      // excludes the last sample
			model.Window{Start: first, End: last.Add(1)},               // includes it
			model.Window{Start: first.Add(1), End: last.Add(1)},        // excludes the first
			model.Window{Start: first.Add(-time.Hour), End: first},     // empty: ends at first
			model.Window{Start: last.Add(1), End: last.Add(time.Hour)}, // past the end
			model.Window{ // interior span with grid-aligned edges
				Start: first.Add(15 * time.Minute),
				End:   last.Add(-15 * time.Minute),
			},
		)
	}
	for wi, w := range windows {
		sameSamples(t, "Samples", db.Samples(id, MetricCPUUtil, w), ref.samples(w))
		gotAvg, gotOK := db.Average(id, MetricCPUUtil, w)
		wantAvg, wantOK := ref.average(w)
		if gotOK != wantOK || gotAvg != wantAvg {
			t.Fatalf("window %d: Average = (%v, %v), want (%v, %v)", wi, gotAvg, gotOK, wantAvg, wantOK)
		}
		for _, bucket := range []time.Duration{15 * time.Minute, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
			sameSamples(t, "Rollup", db.Rollup(id, MetricCPUUtil, w, bucket), ref.rollup(w, bucket))
		}
	}
}

// TestColumnarGridEquivalence drives the detected-grid fast path: a fixed
// 15-minute cadence with gaps, duplicate timestamps and a few off-grid
// stragglers, written once sample-at-a-time and once batched.
func TestColumnarGridEquivalence(t *testing.T) {
	for _, batch := range []bool{false, true} {
		db := newDB()
		ref := &refStore{}
		id := model.MachineID("m1")
		rng := xrand.New(7)
		start := obsWin.Start
		var all []Sample
		for i := 0; i < 400; i++ {
			if rng.Float64() < 0.15 {
				continue // gap: empty grid slot
			}
			at := start.Add(time.Duration(i) * 15 * time.Minute)
			all = append(all, Sample{Time: at, Value: float64(i)})
			if rng.Float64() < 0.05 {
				all = append(all, Sample{Time: at, Value: float64(i) + 0.5}) // duplicate
			}
			if rng.Float64() < 0.05 {
				all = append(all, Sample{Time: at.Add(37 * time.Second), Value: -float64(i)}) // off-grid
			}
		}
		if batch {
			db.AddSeries(id, MetricCPUUtil, all)
		} else {
			for _, s := range all {
				db.Add(id, MetricCPUUtil, s)
			}
		}
		for _, s := range all {
			ref.add(s.Time, s.Value)
		}
		if s := db.series[seriesKey{id, MetricCPUUtil}]; s.stride != int64(15*time.Minute) {
			t.Fatalf("stride = %v, want 15m (grid not detected)", time.Duration(s.stride))
		}
		checkAgainstRef(t, db, ref, id)
	}
}

// TestColumnarIrregularEquivalence drives the row-only fallback: timestamps
// with no dominant cadence, arriving out of order, must never detect a grid
// and still read back exactly like the reference.
func TestColumnarIrregularEquivalence(t *testing.T) {
	db := newDB()
	ref := &refStore{}
	id := model.MachineID("m1")
	rng := xrand.New(11)
	at := obsWin.Start
	for i := 0; i < 200; i++ {
		at = at.Add(time.Duration(1+rng.Intn(10_000_000)) * time.Microsecond)
		v := rng.Float64()
		db.Add(id, MetricCPUUtil, Sample{Time: at, Value: v})
		ref.add(at, v)
		if rng.Float64() < 0.2 { // out-of-order straggler
			back := at.Add(-time.Duration(1+rng.Intn(3600)) * time.Second)
			db.Add(id, MetricCPUUtil, Sample{Time: back, Value: -v})
			ref.add(back, -v)
		}
	}
	if s := db.series[seriesKey{id, MetricCPUUtil}]; s.stride != 0 {
		t.Fatalf("irregular series detected a grid with stride %v", time.Duration(s.stride))
	}
	checkAgainstRef(t, db, ref, id)
}

// TestColumnarEncodeRoundTrip checks that encode → decode of a mixed
// grid/row store reproduces identical samples: the decode side re-detects
// its own grid, so this exercises the transparency of the representation.
func TestColumnarEncodeRoundTrip(t *testing.T) {
	db := newDB()
	id := model.MachineID("m1")
	var samples []Sample
	for i := 0; i < 60; i++ {
		at := obsWin.Start.Add(time.Duration(i) * 15 * time.Minute)
		samples = append(samples, Sample{Time: at, Value: float64(i)})
	}
	samples = append(samples, Sample{Time: obsWin.Start.Add(99 * time.Second), Value: -1})
	db.AddSeries(id, MetricCPUUtil, samples)

	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w := model.Window{Start: epoch, End: epoch.Add(3 * 365 * 24 * time.Hour)}
	sameSamples(t, "decoded", back.Samples(id, MetricCPUUtil, w), db.Samples(id, MetricCPUUtil, w))
}

// TestFootprintCompression checks the memory accounting and the headline
// claim: a grid-shaped series must report well under half the bytes of a
// {time.Time, float64} slice, 32 bytes per sample.
func TestFootprintCompression(t *testing.T) {
	db := newDB()
	id := model.MachineID("m1")
	var samples []Sample
	for i := 0; i < 5000; i++ {
		samples = append(samples, Sample{Time: obsWin.Start.Add(time.Duration(i) * 15 * time.Minute), Value: float64(i)})
	}
	db.AddSeries(id, MetricCPUUtil, samples)
	fp := db.Footprint()
	if fp.Series != 1 || fp.GridSamples+fp.RowSamples != len(samples) {
		t.Fatalf("footprint counts = %+v, want %d samples in 1 series", fp, len(samples))
	}
	const sliceSampleBytes = 32
	slice := int64(len(samples)) * sliceSampleBytes
	if ratio := float64(slice) / float64(fp.Bytes); ratio < 2.5 {
		t.Fatalf("compression ratio = %.2fx (bytes=%d slice=%d), want ≥ 2.5x", ratio, fp.Bytes, slice)
	}
	if math.Abs(float64(fp.GridBytes)-float64(fp.Bytes)) > float64(fp.Bytes) {
		t.Fatalf("inconsistent byte split: %+v", fp)
	}
}
