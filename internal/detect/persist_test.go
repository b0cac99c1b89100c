package detect

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"failscope/internal/binimg"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
)

// buildPersistDetector drives a detector through every state-bearing code
// path: machines of both kinds, placements on three hosts (hostVMs), a
// crash burst that raises, a confirmation (leadDays/leadQ), an expiry,
// monitoring samples far enough along to pass warmup, an anomaly trip
// (both raise sources) and a still-active alert. Its maps hold several
// keys each, so an image that wrote them in map order would differ from
// call to call.
func buildPersistDetector(t *testing.T) *Detector {
	t.Helper()
	d := New(Config{})
	d.ObserveMachine(&model.Machine{ID: "m1", Kind: model.PM, System: 1, Created: t0.AddDate(-2, 0, 0), Capacity: model.Capacity{CPUs: 8, Disks: 4}})
	d.ObserveMachine(&model.Machine{ID: "v1", Kind: model.VM, System: 2, Created: t0.AddDate(-1, 0, 0), HostID: "m1"})
	d.ObserveMachine(&model.Machine{ID: "v2", Kind: model.VM, System: 2, Created: t0})
	d.ObserveMachine(&model.Machine{ID: "m2", Kind: model.PM, System: 3, Created: t0.AddDate(-3, 0, 0)})
	d.ObserveMachine(&model.Machine{ID: "m3", Kind: model.PM, System: 4, Created: t0.AddDate(-3, 0, 0)})
	d.ObserveMachine(&model.Machine{ID: "v3", Kind: model.VM, System: 3, Created: t0, HostID: "m2"})
	d.ObserveMachine(&model.Machine{ID: "v4", Kind: model.VM, System: 4, Created: t0, HostID: "m3"})
	d.ObservePlacement("v1", "m1", t0)
	d.ObservePlacement("v2", "m1", t0.AddDate(0, 1, 0))
	d.ObservePlacement("v3", "m2", t0)
	d.ObservePlacement("v4", "m3", t0)

	// m1: raise + confirm (populates leadDays/leadQ and the cleared ring).
	for i := 0; i < DefaultMinCrashes; i++ {
		crash(d, "m1", day(i*7))
	}
	crash(d, "m1", day(31))

	// v1: raise then expire.
	for i := 0; i < DefaultMinCrashes; i++ {
		crash(d, "v1", day(40+i))
	}
	d.Advance(day(43).Add(DefaultHorizon + time.Hour))

	// v2: EWMA/CUSUM series state past warmup, plus a mid-burst crash
	// count that has not raised yet.
	for i := 0; i < 80; i++ {
		at := day(50).Add(time.Duration(i) * time.Hour)
		d.ObserveSample("v2", monitordb.MetricCPUUtil, at, 50+float64(i%7))
		d.ObserveSample("v2", monitordb.MetricNetKbps, at, 900)
	}
	crash(d, "v2", day(55))
	crash(d, "v2", day(56))

	// v3: a sustained usage shift after warmup trips the CUSUM.
	for i := 0; i < 3*warmup+6; i++ {
		v := 40 + 2*float64(i%2)
		if i >= 3*warmup {
			v = 95
		}
		d.ObserveSample("v3", monitordb.MetricCPUUtil, day(50).Add(time.Duration(i)*time.Hour), v)
	}
	if len(d.hostVMs) < 3 || len(d.raisedBySource) < 2 {
		t.Fatalf("fixture covers %d hosts and raise sources %v, want 3 and both", len(d.hostVMs), d.raisedBySource)
	}
	return d
}

// writeState returns d's image.
func writeState(t *testing.T, d *Detector) []byte {
	t.Helper()
	var img bytes.Buffer
	w := binimg.NewWriter(&img)
	d.WriteState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// restoreState restores d from img.
func restoreState(d *Detector, img []byte) error {
	return d.RestoreState(binimg.NewReader(bytes.NewReader(img)))
}

// TestDetectorStateRoundTrip pins exact restoration: identical bytes on
// every serialization and on re-serialization, identical snapshots, and
// identical behavior under a continued event stream.
func TestDetectorStateRoundTrip(t *testing.T) {
	d := buildPersistDetector(t)

	img := writeState(t, d)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(img, writeState(t, d)) {
			t.Fatalf("write %d of one detector differs from the first", i+2)
		}
	}
	r := New(Config{})
	if err := restoreState(r, img); err != nil {
		t.Fatal(err)
	}

	// Serialization is deterministic, so byte equality of a re-written
	// image is full state equality (modulo the publish watermarks, which
	// WriteState does not include).
	if !bytes.Equal(img, writeState(t, r)) {
		t.Fatal("re-serialized state differs from original image")
	}
	if !reflect.DeepEqual(d.Snapshot(), r.Snapshot()) {
		t.Fatalf("snapshots differ after restore:\n%+v\nvs\n%+v", d.Snapshot(), r.Snapshot())
	}

	// Continue both under an identical stream: anomaly samples, a raise,
	// a confirm and an expiry sweep must land identically.
	apply := func(x *Detector) {
		for i := 0; i < 120; i++ {
			at := day(60).Add(time.Duration(i) * time.Hour)
			v := 50 + float64(i%7)
			if i > 60 {
				v += 40 // sustained shift the CUSUM should flag
			}
			x.ObserveSample("v2", monitordb.MetricCPUUtil, at, v)
		}
		crash(x, "v2", day(66))
		for i := 0; i < DefaultMinCrashes; i++ {
			crash(x, "m1", day(70+i*3))
		}
		x.Advance(day(200))
	}
	apply(d)
	apply(r)
	if !reflect.DeepEqual(d.Snapshot(), r.Snapshot()) {
		t.Fatalf("snapshots diverge after post-restore events:\n%+v\nvs\n%+v", d.Snapshot(), r.Snapshot())
	}
}

// TestDetectorRestorePublishConverges: the restored detector starts with
// zeroed publish watermarks, so its first Publish into a fresh registry
// reproduces the cumulative raised/cleared counters of the original.
func TestDetectorRestorePublishConverges(t *testing.T) {
	d := buildPersistDetector(t)
	orig := obs.NewRegistry()
	d.Publish(orig)

	r := New(Config{})
	if err := restoreState(r, writeState(t, d)); err != nil {
		t.Fatal(err)
	}
	fresh := obs.NewRegistry()
	r.Publish(fresh)

	a, b := orig.Snapshot(), fresh.Snapshot()
	for _, name := range []string{
		"detect.alerts_active", "detect.machines",
		"detect.alerts_raised", "detect.alerts_cleared",
		"detect.alerts_confirmed", "detect.alerts_expired",
		"detect.alerts_raised_anomaly",
	} {
		if a[name] != b[name] {
			t.Errorf("%s: original registry %v, post-restore registry %v", name, a[name], b[name])
		}
	}
}

// TestDetectorRestoreRefusesConfigMismatch: an image written under one
// raise rule must not load into a detector configured with another.
func TestDetectorRestoreRefusesConfigMismatch(t *testing.T) {
	d := buildPersistDetector(t)
	r := New(Config{Horizon: DefaultHorizon * 2})
	if err := restoreState(r, writeState(t, d)); err == nil {
		t.Fatal("restore accepted an image written under a different horizon")
	}
}
