package monitordb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"
	"time"
	"unicode/utf8"

	"failscope/internal/model"
)

// encodeJSONOnly is DB.Encode through reflection: a json.Encoder over
// every record. It is the reference the parity tests, the fuzz target and
// BenchmarkMonitorEncodeLegacy hold Encode to.
func encodeJSONOnly(db *DB, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	db.mu.RLock()
	defer db.mu.RUnlock()

	epoch := db.epoch
	if err := enc.Encode(monitorRecord{
		Kind:      "header",
		Epoch:     &epoch,
		Retention: int64(db.retention / time.Hour),
	}); err != nil {
		return fmt.Errorf("monitordb: encode header: %w", err)
	}

	keys := make([]seriesKey, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		var encErr error
		db.series[k].each(func(t int64, v float64) {
			if encErr != nil {
				return
			}
			at := sampleTime(t)
			encErr = enc.Encode(monitorRecord{
				Kind: "sample", Machine: k.id, Metric: k.metric, Time: &at, Value: v,
			})
		})
		if encErr != nil {
			return fmt.Errorf("monitordb: encode sample: %w", encErr)
		}
	}

	ids := make([]model.MachineID, 0, len(db.power))
	for id := range db.power {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		events := append([]PowerEvent(nil), db.power[id]...)
		sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
		for _, ev := range events {
			at := ev.Time
			on := ev.On
			if err := enc.Encode(monitorRecord{Kind: "power", Machine: id, Time: &at, On: &on}); err != nil {
				return fmt.Errorf("monitordb: encode power event: %w", err)
			}
		}
	}

	vms := make([]model.MachineID, 0, len(db.placement))
	for id := range db.placement {
		vms = append(vms, id)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, id := range vms {
		recs := append([]placementRecord(nil), db.placement[id]...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].month.Before(recs[j].month) })
		for _, rec := range recs {
			at := rec.month
			if err := enc.Encode(monitorRecord{Kind: "placement", Machine: id, Time: &at, Host: rec.host}); err != nil {
				return fmt.Errorf("monitordb: encode placement: %w", err)
			}
		}
	}
	return bw.Flush()
}

// checkEncodeParity encodes db through Encode and the json-only reference
// and requires the same bytes or the same error text. It returns the
// encoding, or nil when both failed.
func checkEncodeParity(t *testing.T, db *DB) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gerr := db.Encode(&got)
	werr := encodeJSONOnly(db, &want)
	if (gerr == nil) != (werr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("error mismatch:\nfast:      %v\njson-only: %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("bytes differ:\nfast:      %s\njson-only: %s", got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// TestEncodeCanonicalDB encodes the hand-built canonical database both
// ways: identical bytes, no fallback. The small study's database is
// checked from the external test package (study_encode_test.go).
func TestEncodeCanonicalDB(t *testing.T) {
	fb0 := encodeFallbacks.Load()
	checkEncodeParity(t, canonicalDB())
	if fb := encodeFallbacks.Load() - fb0; fb != 0 {
		t.Fatalf("%d canonical records fell back to json.Marshal", fb)
	}
}

// TestEncodeTrickyValues holds Encode to the json-only reference on
// databases holding escapes, float cutoffs, negative zero, zones,
// sub-second and out-of-range times, NaN, and empty fields.
func TestEncodeTrickyValues(t *testing.T) {
	at := obsWin.Start.Add(90 * time.Minute)
	cest := time.FixedZone("CEST", 2*3600)
	sample := func(id model.MachineID, v float64) *DB {
		db := newDB()
		db.Add(id, MetricCPUUtil, Sample{Time: at, Value: v})
		return db
	}
	withEpoch := func(e time.Time, retention time.Duration) *DB { return New(e, retention) }
	power := func(id model.MachineID, t time.Time) *DB {
		db := New(t.Add(-time.Hour), 24*time.Hour)
		db.AddPowerEvent(id, PowerEvent{Time: t, On: true})
		return db
	}
	placement := func(vm, host model.MachineID) *DB {
		db := newDB()
		db.SetPlacement(vm, host, at)
		return db
	}
	cases := map[string]*DB{
		"html":           sample("<vm>&co", 1),
		"u2028":          placement("a b", "c d"),
		"invalid-utf8":   placement("bad \xff", "\xe2\x80"),
		"control":        sample("\x00\x1f\x7f\b\f\n\r\t\"\\", 1),
		"empty-id":       sample("", 2.5),
		"empty-host":     placement("vm", ""),
		"float-1e-7":     sample("a", 1e-7),
		"float-1e21":     sample("a", 1e21),
		"float-1e20":     sample("a", -1e20),
		"negative-zero":  sample("a", math.Copysign(0, -1)),
		"zero-value":     sample("a", 0),
		"nan":            sample("a", math.NaN()),
		"inf":            sample("a", math.Inf(1)),
		"epoch-non-utc":  withEpoch(epoch.In(cest), time.Hour),
		"epoch-local":    withEpoch(epoch.Local(), 0),
		"epoch-sub-sec":  withEpoch(epoch.Add(1), -time.Hour),
		"epoch-year-0":   withEpoch(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour),
		"epoch-year-1e4": withEpoch(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour),
		"epoch-zone-24h": withEpoch(time.Date(2012, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)), time.Hour),
		"power-non-utc":  power("a", at.In(cest)),
		"power-sub-sec":  power("a", at.Add(123456789)),
		"power-year-1e4": power("a", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)),
		"zero-epoch":     withEpoch(time.Time{}, 0),
	}
	for name, db := range cases {
		t.Run(name, func(t *testing.T) {
			checkEncodeParity(t, db)
		})
	}
}

// FuzzEncodeMonitor builds a database holding a sample, a power event and
// a placement from fuzz values and holds Encode to the json-only
// reference; output that encodes must decode, and re-encode to the same
// bytes.
func FuzzEncodeMonitor(f *testing.F) {
	f.Add("S1-VM-0001", "box-1", 1, 37.25, int64(1344124800), int64(0), int32(0), int16(8760), uint8(0))
	f.Add("<a&b>", "x y", 3, 1e21, int64(1344124800), int64(123456789), int32(7200), int16(1), uint8(7))
	f.Add("bad \xff", "", -2, math.NaN(), int64(253402300800), int64(1), int32(86400), int16(-5), uint8(255))
	f.Fuzz(func(t *testing.T, id, host string, metric int, v float64, sec, nsec int64, zone int32, hours int16, flags uint8) {
		at := time.Unix(sec, nsec)
		if flags&1 == 0 {
			at = at.UTC()
		} else {
			at = at.In(time.FixedZone("", int(zone)))
		}
		// Whole hours: the header records retention in hours.
		db := New(at, time.Duration(hours)*time.Hour)
		later := at
		if span := time.Duration(hours) * time.Hour / 2; span != 0 {
			later = at.Add(time.Duration(nsec) % span)
		}
		db.Add(model.MachineID(id), Metric(metric), Sample{Time: later, Value: v})
		db.AddPowerEvent(model.MachineID(host), PowerEvent{Time: later, On: flags&2 != 0})
		db.SetPlacement(model.MachineID(id), model.MachineID(host), later)
		encoded := checkEncodeParity(t, db)
		if encoded == nil {
			return
		}
		back, err := Decode(bytes.NewReader(encoded))
		if err != nil {
			// The dump decoders validate what the encoder does not (an
			// empty placement host, say); the fast decoder must still
			// agree with the json-only one.
			checkMonitorParity(t, encoded, fuzzConfigs)
			return
		}
		var again bytes.Buffer
		if err := back.Encode(&again); err != nil {
			t.Fatal(err)
		}
		// json encodes invalid UTF-8 and sub-minute zone offsets lossily.
		exact := utf8.ValidString(id) && utf8.ValidString(host) && (flags&1 == 0 || zone%60 == 0)
		if exact && !bytes.Equal(again.Bytes(), encoded) {
			t.Fatalf("round trip changed bytes:\nfirst:  %s\nsecond: %s", encoded, again.Bytes())
		}
	})
}
