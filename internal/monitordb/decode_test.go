package monitordb

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"failscope/internal/model"
)

// canonicalDB builds a database exercising every record Encode writes:
// grid-cadence series long enough for cadence detection, irregular and
// duplicate samples, samples outside retention (dropped on write), power
// events and placements, under machine IDs the encoder must escape.
func canonicalDB() *DB {
	db := newDB()
	for m := 0; m < 12; m++ {
		id := model.MachineID(fmt.Sprintf("S%d-VM-%04d", m%5+1, m))
		if m == 11 {
			id = `vm "<&>" ✓`
		}
		for _, metric := range Metrics() {
			samples := []Sample{{Time: epoch.Add(-time.Hour), Value: 1}} // dropped
			for i := 0; i < 40+m; i++ {
				samples = append(samples, Sample{
					Time:  obsWin.Start.Add(time.Duration(i) * 7 * 24 * time.Hour),
					Value: float64(i*m) * 0.125,
				})
			}
			samples = append(samples,
				Sample{Time: obsWin.Start.Add(3*24*time.Hour + 17*time.Second), Value: 1e-7},
				Sample{Time: obsWin.Start, Value: -2.5}, // duplicate of slot 0
			)
			db.AddSeries(id, metric, samples)
		}
		db.AddPowerEvents(id, []PowerEvent{
			{Time: obsWin.Start.Add(time.Duration(m) * time.Hour), On: false},
			{Time: obsWin.Start.Add(time.Duration(m)*time.Hour + 90*time.Minute + 250*time.Millisecond), On: true},
		})
		for mo := 0; mo < 6; mo++ {
			db.SetPlacement(id, model.MachineID(fmt.Sprintf("box-%d", (m+mo/3)%4)), obsWin.Start.AddDate(0, mo, 5))
		}
	}
	return db
}

const monitorHeader = `{"kind":"header","epoch":"2011-07-01T00:00:00Z","retentionHours":17520}`

// trickyMonitorLines are records a canonical encoder never writes, each
// decoded after a header line; see trickyDatasetLines in internal/model.
var trickyMonitorLines = []string{
	` { "value" : 3.5 , "kind" : "sample" , "machine" : "a" , "metric" : 1 , "time" : "2012-08-05T00:00:00Z" } `,
	`{"kind":"sample","machine":"a","metric":null,"value":null,"time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","time":null}`,
	`{"kind":"power","machine":"a","time":"2012-08-05T00:00:00Z","on":null}`,
	`{"kind":"power","machine":"a","time":"2012-08-05T00:00:00Z","on":true,"on":false}`,
	`{"kind":"sample","machine":"a","machine":"b","metric":2,"time":"2012-08-05T00:00:00Z","time":"2012-08-06T00:00:00Z","value":1}`,
	`{"kind":"sample","machine":"a","time":null,"time":"2012-08-05T00:00:00Z"}`,
	`{"Kind":"sample","MACHINE":"a","time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","ſetric":2,"time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T02:00:00+02:00"}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00.000000001Z","value":-0}`,
	`{"kind":"placement","machine":"v\u00e9\/\"1","host":"h\\\t","time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"placement","machine":"v","host":"\ud83d\ude00","time":"2012-08-05T00:00:00Z"}`,
	"{\"kind\":\"placement\",\"machine\":\"v\",\"host\":\"bad \xff\",\"time\":\"2012-08-05T00:00:00Z\"}",
	`{"kind":"placement","machine":"v","host":"","time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z","value":5e-324,"extra":[{"x":[null,true,-1.5e3]},"s\n"]}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z","extra":"\x"}`,
	`{"kind":"sample","machine":"a","time":"2009-01-01T00:00:00Z"}`,
	`{"kind":"header","epoch":"2011-07-01T00:00:00Z"}`,
	`{"kind":"bogus"}`,
	`null`,
}

// malformedMonitorInputs must fail in both decoders with identical text.
var malformedMonitorInputs = []string{
	"not json",
	monitorHeader + "\nnot json",
	monitorHeader + "\n" + `{"kind":"sample","machine":"a","metric":1.5}`,
	monitorHeader + "\n" + `{"kind":"sample","machine":"a","value":"x"}`,
	monitorHeader + "\n" + `{"kind":"sample","time":"2012-13-40T00:00:00Z"}`,
	monitorHeader + "\n" + `{"kind":"sample","time":"2012-08-05T00:00:00Z"} x`,
	monitorHeader + "\n" + "{\"kind\":\"sam\x01ple\"}",
	monitorHeader + "\n" + `{"kind":"power","on":1}`,
	monitorHeader + "\n" + `{"kind":"header","retentionHours":1.5}`,
	monitorHeader + "\n" + monitorHeader,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z"}`,
}

// dbImage renders everything Decode populates: the re-encoded dump plus
// each machine's first-seen instant.
func dbImage(t *testing.T, db *DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ids := db.Machines()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		first, _ := db.FirstSeen(id)
		fmt.Fprintf(&buf, "%q first seen %s\n", id, first.Format(time.RFC3339Nano))
	}
	return buf.String()
}

// checkMonitorParity decodes in through both decoders and reports any
// difference in the decoded database or the error text.
func checkMonitorParity(t *testing.T, in []byte) (fast, ref *DB) {
	t.Helper()
	ref, rerr := decodeJSONOnly(bytes.NewReader(in))
	fast, ferr := Decode(bytes.NewReader(in))
	if (rerr == nil) != (ferr == nil) || (rerr != nil && rerr.Error() != ferr.Error()) {
		t.Fatalf("error mismatch on %q:\nfast:      %v\njson-only: %v", in, ferr, rerr)
	}
	if rerr == nil {
		if got, want := dbImage(t, fast), dbImage(t, ref); got != want {
			t.Fatalf("database mismatch on %q:\nfast:\n%s\njson-only:\n%s", in, got, want)
		}
	}
	return fast, ref
}

// TestDecodeMatchesJSONOnly round-trips canonical Encode output through
// both decoders: byte-identical re-encodes, every line on the fast path,
// and a footprint that can only shrink (AddSeries trims append slack).
func TestDecodeMatchesJSONOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := canonicalDB().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fast0, fb0 := decodeFast.Load(), decodeFallback.Load()
	fast, ref := checkMonitorParity(t, buf.Bytes())
	lines := int64(bytes.Count(buf.Bytes(), []byte("\n")))
	if fb := decodeFallback.Load() - fb0; fb != 0 {
		t.Fatalf("canonical lines fell back to encoding/json: %d", fb)
	}
	if n := decodeFast.Load() - fast0; n != lines {
		t.Fatalf("fast-path lines = %d, want %d", n, lines)
	}
	if got := dbImage(t, fast); !strings.HasPrefix(got, buf.String()) {
		t.Fatal("decoded database does not re-encode to its input")
	}
	ff, rf := fast.Footprint(), ref.Footprint()
	if ff.GridSamples != rf.GridSamples || ff.RowSamples != rf.RowSamples || ff.Bytes > rf.Bytes {
		t.Fatalf("footprint: fast %+v, json-only %+v", ff, rf)
	}
}

func TestDecodeDuplicateHeader(t *testing.T) {
	in := monitorHeader + "\n" + `{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z"}` + "\n" + monitorHeader + "\n"
	_, err := Decode(strings.NewReader(in))
	if want := "monitordb: line 3: duplicate header record"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestDecodeTrickyLines(t *testing.T) {
	for i, line := range trickyMonitorLines {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkMonitorParity(t, []byte(monitorHeader+"\n"+line))
		})
	}
}

func TestDecodeMalformedErrorText(t *testing.T) {
	for i, in := range malformedMonitorInputs {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			if _, err := Decode(strings.NewReader(in)); err == nil {
				t.Fatalf("Decode(%q) accepted", in)
			}
			checkMonitorParity(t, []byte(in))
		})
	}
}

// TestDecodeSteadyStateAllocs pins the fast decoder's allocations per
// sample line. Repeated machine IDs are reused and each series lands in
// one AddSeries call, so what remains is per-series storage, amortized.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	var dump bytes.Buffer
	dump.WriteString(monitorHeader + "\n")
	n := 0
	for m := 0; m < 8; m++ {
		for _, metric := range Metrics() {
			for i := 0; i < 64; i++ {
				at := obsWin.Start.Add(time.Duration(i) * 7 * 24 * time.Hour)
				fmt.Fprintf(&dump, `{"kind":"sample","machine":"S1-VM-%04d","time":%q,"metric":%d,"value":%d.5}`+"\n",
					m, at.Format(time.RFC3339), metric, i)
				n++
			}
		}
	}
	raw := dump.Bytes()
	rd := bytes.NewReader(raw)
	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		if _, err := Decode(rd); err != nil {
			t.Fatal(err)
		}
	})
	perLine := avg / float64(n)
	t.Logf("%.3f allocs/line", perLine)
	// Measured 0.204/line: about a dozen per series of 64 samples.
	if perLine > 0.25 {
		t.Fatalf("Decode allocates %.3f allocs/line (%.0f total), budget 0.25", perLine, avg)
	}
}

// FuzzDecodeMonitor holds the fast decoder to the json-only one on
// arbitrary input: databases that re-encode identically, or identical
// error text.
func FuzzDecodeMonitor(f *testing.F) {
	var buf bytes.Buffer
	if err := canonicalDB().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, line := range trickyMonitorLines {
		f.Add([]byte(monitorHeader + "\n" + line))
	}
	for _, in := range malformedMonitorInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkMonitorParity(t, in)
	})
}
