package monitordb

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	db := newDB()
	db.Add("m1", MetricCPUUtil, Sample{Time: obsWin.Start.Add(time.Hour), Value: 42.5})
	db.Add("m1", MetricNetKbps, Sample{Time: obsWin.Start.Add(2 * time.Hour), Value: 128})
	db.Add("m2", MetricCPUUtil, Sample{Time: obsWin.Start.Add(3 * time.Hour), Value: 7})
	db.AddPowerEvent("m1", PowerEvent{Time: obsWin.Start.Add(4 * time.Hour), On: false})
	db.AddPowerEvent("m1", PowerEvent{Time: obsWin.Start.Add(5 * time.Hour), On: true})
	db.SetPlacement("m1", "box-1", obsWin.Start)

	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if !got.Epoch().Equal(db.Epoch()) {
		t.Error("epoch not preserved")
	}
	avg, ok := got.Average("m1", MetricCPUUtil, obsWin)
	if !ok || avg != 42.5 {
		t.Errorf("sample lost: %v %v", avg, ok)
	}
	if got.OnOffCount("m1", obsWin) != 1 {
		t.Error("power events lost")
	}
	if lvl, ok := got.ConsolidationLevel("m1", obsWin.Start); !ok || lvl != 1 {
		t.Errorf("placement lost: %v %v", lvl, ok)
	}
	if len(got.Machines()) != 2 {
		t.Errorf("machines: %v", got.Machines())
	}
}

func TestCodecDeterministicOutput(t *testing.T) {
	build := func() *DB {
		db := newDB()
		db.Add("b", MetricCPUUtil, Sample{Time: obsWin.Start, Value: 1})
		db.Add("a", MetricMemUtil, Sample{Time: obsWin.Start, Value: 2})
		db.SetPlacement("a", "h", obsWin.Start)
		return db
	}
	var x, y bytes.Buffer
	if err := build().Encode(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().Encode(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"not json\n",
		"{\"kind\":\"sample\",\"machine\":\"m\"}\n", // before header
		"{\"kind\":\"bogus\"}\n",                    // unknown kind
		"{\"kind\":\"header\"}\n",                   // header without epoch
		"{\"kind\":\"header\",\"epoch\":\"2011-07-01T00:00:00Z\",\"retentionHours\":17520}\n{\"kind\":\"power\",\"machine\":\"m\"}\n", // malformed power
		"{\"kind\":\"header\",\"epoch\":\"2011-07-01T00:00:00Z\"}\n{\"kind\":\"header\",\"epoch\":\"2011-07-01T00:00:00Z\"}\n",        // duplicate header
	}
	for _, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode(%q) accepted", in)
		}
	}
}
