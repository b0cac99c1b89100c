package monitordb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"failscope/internal/binimg"
)

// buildSegmentDB assembles a store exercising every representational
// corner: grid-detected series, off-grid rows, duplicate timestamps,
// a series still below the detection threshold, power logs, placements
// (including an overwritten month) and an eviction.
func buildSegmentDB(t *testing.T) *DB {
	t.Helper()
	epoch := time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	db := New(epoch, 2*365*24*time.Hour)

	// Grid series: 15-min cadence, enough rows to trigger detection.
	var grid []Sample
	for i := 0; i < 40; i++ {
		grid = append(grid, Sample{Time: epoch.Add(time.Duration(i) * 15 * time.Minute), Value: float64(i)})
	}
	db.AddSeries("S1-VM-0001", MetricCPUUtil, grid)
	// Duplicate of an occupied slot plus an off-grid straggler.
	db.Add("S1-VM-0001", MetricCPUUtil, Sample{Time: epoch.Add(15 * time.Minute), Value: 99})
	db.Add("S1-VM-0001", MetricCPUUtil, Sample{Time: epoch.Add(7 * time.Minute), Value: 42})

	// Irregular series that stays in the row section (below detection).
	for i := 0; i < 5; i++ {
		db.Add("S2-PM-0002", MetricNetKbps, Sample{
			Time:  epoch.Add(time.Duration(i*i) * time.Hour),
			Value: float64(100 + i),
		})
	}

	db.AddPowerEvent("S1-VM-0001", PowerEvent{Time: epoch.Add(2 * time.Hour), On: false})
	db.AddPowerEvent("S1-VM-0001", PowerEvent{Time: epoch.Add(3 * time.Hour), On: true})
	db.SetPlacement("S1-VM-0001", "S1-PM-0009", epoch)
	db.SetPlacement("S1-VM-0001", "S1-PM-0010", epoch) // overwrite same month
	db.SetPlacement("S1-VM-0001", "S1-PM-0010", epoch.AddDate(0, 1, 0))
	return db
}

// writeSegment returns db's segment.
func writeSegment(t *testing.T, db *DB) []byte {
	t.Helper()
	var seg bytes.Buffer
	w := binimg.NewWriter(&seg)
	db.WriteSegment(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return seg.Bytes()
}

// readSegment reads a store back from seg.
func readSegment(seg []byte) (*DB, error) {
	return ReadSegment(binimg.NewReader(bytes.NewReader(seg)))
}

// seriesStateOf exposes the internal maps for equality checks; the mutex
// and observer fields are excluded by construction.
func dbState(db *DB) map[string]any {
	return map[string]any{
		"retention":   db.retention,
		"series":      db.series,
		"power":       db.power,
		"placement":   db.placement,
		"firstSeen":   db.firstSeen,
		"epoch":       db.epoch,
		"windowStart": db.windowStart,
		"windowEnd":   db.windowEnd,
	}
}

// TestSegmentRoundTripExact writes a segment and reads it back, requiring
// the reconstructed store to be field-for-field identical (hostLoad
// excepted — it is rebuilt from placement, dropping only unobservable
// zero-count entries).
func TestSegmentRoundTripExact(t *testing.T) {
	db := buildSegmentDB(t)

	got, err := readSegment(writeSegment(t, db))
	if err != nil {
		t.Fatal(err)
	}
	want, have := dbState(db), dbState(got)
	for k := range want {
		if !reflect.DeepEqual(want[k], have[k]) {
			t.Errorf("%s differs after round trip:\nwant %#v\nhave %#v", k, want[k], have[k])
		}
	}
	// hostLoad must agree on every non-zero entry.
	for k, n := range db.hostLoad {
		if n != 0 && got.hostLoad[k] != n {
			t.Errorf("hostLoad[%v] = %d, want %d", k, got.hostLoad[k], n)
		}
	}
	for k, n := range got.hostLoad {
		if db.hostLoad[k] != n {
			t.Errorf("restored hostLoad[%v] = %d, want %d", k, n, db.hostLoad[k])
		}
	}

	// The JSONL codec is the behavioral oracle: both stores must export
	// identical bytes.
	var a, b bytes.Buffer
	if err := db.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL export differs after segment round trip")
	}
}

// TestSegmentRoundTripFutureWrites proves a restored store behaves
// identically under continued writes and window advances — grid routing,
// detection backoff and eviction all resume exactly where they left off.
func TestSegmentRoundTripFutureWrites(t *testing.T) {
	db := buildSegmentDB(t)
	got, err := readSegment(writeSegment(t, db))
	if err != nil {
		t.Fatal(err)
	}

	epoch := db.epoch
	apply := func(d *DB) {
		// More grid samples, another duplicate, irregular rows that push
		// the backed-off series over its next detection threshold, and an
		// eviction-triggering advance.
		var more []Sample
		for i := 40; i < 60; i++ {
			more = append(more, Sample{Time: epoch.Add(time.Duration(i) * 15 * time.Minute), Value: float64(i)})
		}
		d.AddSeries("S1-VM-0001", MetricCPUUtil, more)
		for i := 5; i < 30; i++ {
			d.Add("S2-PM-0002", MetricNetKbps, Sample{
				Time:  epoch.Add(time.Duration(i*i) * time.Hour),
				Value: float64(100 + i),
			})
		}
		d.Advance(epoch.Add(2*365*24*time.Hour + 31*24*time.Hour))
	}
	apply(db)
	apply(got)

	want, have := dbState(db), dbState(got)
	for k := range want {
		if !reflect.DeepEqual(want[k], have[k]) {
			t.Errorf("%s diverges after post-restore writes:\nwant %#v\nhave %#v", k, want[k], have[k])
		}
	}
}

// TestSegmentRejectsCorruption flips the magic and truncates the stream;
// both must error, never return a half-built store.
func TestSegmentRejectsCorruption(t *testing.T) {
	db := buildSegmentDB(t)
	raw := writeSegment(t, db)

	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := readSegment(bad); err == nil {
		t.Error("corrupt magic accepted")
	}
	for _, cut := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := readSegment(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestSegmentGolden pins the FSSEG001 bytes of the fixture store: the
// segment codec may get faster, but a checkpoint written by any version
// must stay readable by every other, so the bytes must not move.
func TestSegmentGolden(t *testing.T) {
	seg := writeSegment(t, buildSegmentDB(t))
	const want = "113411c29ef1ec628ec1c3a3f6907427e38e08b397e1b8d7e0fae26dea192d7f"
	if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != want || len(seg) != 880 {
		t.Fatalf("segment is %d bytes with SHA-256 %s, want 880 bytes with %s", len(seg), got, want)
	}
}

// TestSegmentOrderOutsideMetrics: a series whose metric is not one of
// Metrics() takes the sorted path to its place in the segment, which
// still reads back and re-writes to the same bytes.
func TestSegmentOrderOutsideMetrics(t *testing.T) {
	db := buildSegmentDB(t)
	at := db.epoch.Add(time.Hour)
	db.Add("S1-VM-0001", Metric(9), Sample{Time: at, Value: 1})
	db.Add("S0-PM-0000", Metric(0), Sample{Time: at, Value: 2})
	seg := writeSegment(t, db)
	got, err := readSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.series) != len(db.series) || !bytes.Equal(writeSegment(t, got), seg) {
		t.Fatal("the segment does not round-trip")
	}
}
