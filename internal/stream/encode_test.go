package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"failscope/internal/dcsim"
	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// encodeJSONLJSONOnly is EncodeJSONL through reflection: a json.Encoder
// over every event. It is the reference the parity tests, the fuzz target
// and BenchmarkEncodeJSONLLegacy hold EncodeJSONL to.
func encodeJSONLJSONOnly(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("stream: encode event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// studyEvents is the small study's full event stream, generated once per
// test binary.
var studyEvents = sync.OnceValues(func() ([]Event, error) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		return nil, err
	}
	return EventsFromField(field.Data, field.Tickets, field.Monitor), nil
})

// checkEncodeParity encodes events through EncodeJSONL and the json-only
// reference and requires the same bytes or the same error text. It
// returns the encoding, or nil when both failed.
func checkEncodeParity(t *testing.T, events []Event) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gerr := EncodeJSONL(&got, events)
	werr := encodeJSONLJSONOnly(&want, events)
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

// TestEncodeJSONLMatchesJSONOnly encodes the whole small study stream both
// ways: identical bytes, and no event handed to json.Marshal.
func TestEncodeJSONLMatchesJSONOnly(t *testing.T) {
	events, err := studyEvents()
	if err != nil {
		t.Fatal(err)
	}
	fb0 := encodeFallbacks.Load()
	checkEncodeParity(t, events)
	if fb := encodeFallbacks.Load() - fb0; fb != 0 {
		t.Fatalf("%d canonical events fell back to json.Marshal", fb)
	}
	var viaAppend []byte
	if viaAppend, err = AppendJSONL([]byte("x"), events[:2000]); err != nil {
		t.Fatal(err)
	}
	var viaEncode bytes.Buffer
	if err := EncodeJSONL(&viaEncode, events[:2000]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaAppend[1:], viaEncode.Bytes()) {
		t.Fatal("AppendJSONL and EncodeJSONL disagree")
	}
}

// trickyEvents returns events holding the values an encoder gets wrong
// first, each paired with a name: escapes, float cutoffs, negative zero,
// zones, sub-second and out-of-range times, NaN, and empty or nil fields.
func trickyEvents() map[string]Event {
	at := func(t time.Time) *time.Time { return &t }
	utc := time.Date(2012, 8, 5, 10, 0, 0, 0, time.UTC)
	yes, no := true, false
	return map[string]Event{
		"html":          {Type: "sample", ServerID: "<vm>&co", Time: at(utc), Value: 1},
		"u2028":         {Type: "placement", ServerID: "a\u2028b\u2029c", Host: "h", Time: at(utc)},
		"invalid-utf8":  {Type: "ticket", Ticket: &model.Ticket{ID: "bad \xff\xfe", Description: "\xc3", Opened: utc, Closed: utc}},
		"control":       {Type: "ticket", Ticket: &model.Ticket{ID: "c", Description: "\x00\x01\b\f\n\r\t\x1f\x7f\"\\", Opened: utc, Closed: utc}},
		"float-1e-7":    {Type: "sample", ServerID: "a", Metric: 1, Time: at(utc), Value: 1e-7},
		"float-1e21":    {Type: "sample", ServerID: "a", Metric: 1, Time: at(utc), Value: 1e21},
		"float-1e20":    {Type: "sample", ServerID: "a", Metric: 1, Time: at(utc), Value: -1e20},
		"negative-zero": {Type: "sample", ServerID: "a", Metric: 1, Time: at(utc), Value: math.Copysign(0, -1)},
		"capacity-zero": {Type: "machine", Machine: &model.Machine{ID: "m", Capacity: model.Capacity{MemoryGB: math.Copysign(0, -1), DiskGB: 5e-324}}},
		"non-utc":       {Type: "advance", Time: at(time.Date(2012, 8, 5, 10, 0, 0, 0, time.FixedZone("CEST", 2*3600)))},
		"zero-offset":   {Type: "advance", Time: at(time.Date(2012, 8, 5, 10, 0, 0, 0, time.FixedZone("GMT", 0)))},
		"local":         {Type: "advance", Time: at(utc.Local())},
		"sub-second":    {Type: "advance", Time: at(utc.Add(123456780))},
		"nanosecond":    {Type: "advance", Time: at(utc.Add(1))},
		"year-0":        {Type: "advance", Time: at(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC))},
		"year-9999":     {Type: "advance", Time: at(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC))},
		"year-10000":    {Type: "advance", Time: at(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))},
		"year-minus-1":  {Type: "advance", Time: at(time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC))},
		"zone-24h":      {Type: "advance", Time: at(time.Date(2012, 8, 5, 0, 0, 0, 0, time.FixedZone("", 24*3600)))},
		"ticket-year":   {Type: "ticket", Ticket: &model.Ticket{ID: "t", Opened: utc, Closed: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		"nan":           {Type: "sample", ServerID: "a", Metric: 1, Time: at(utc), Value: math.NaN()},
		"inf":           {Type: "sample", ServerID: "a", Metric: 1, Time: at(utc), Value: math.Inf(-1)},
		"capacity-nan":  {Type: "machine", Machine: &model.Machine{ID: "m", Capacity: model.Capacity{DiskGB: math.NaN()}}},
		"empty":         {},
		"zero-payloads": {Type: "x", Machine: &model.Machine{}, Ticket: &model.Ticket{}, Incident: &model.Incident{}},
		"zero-time-ptr": {Type: "power", ServerID: "a", Time: at(time.Time{}), On: &no},
		"on-true-ref":   {Type: "power", ServerID: "a", Time: at(utc), On: &yes, Ref: true},
		"servers-nil":   {Type: "incident", Incident: &model.Incident{ID: "i", Time: utc}},
		"servers-empty": {Type: "incident", Incident: &model.Incident{ID: "i", Time: utc, Servers: []model.MachineID{}}},
		"servers":       {Type: "incident", Incident: &model.Incident{ID: "i", Time: utc, Servers: []model.MachineID{"a", "<b>", ""}}},
		"all-fields": {Type: "everything", Machine: &model.Machine{ID: "m", Kind: model.VM, HostID: "h", Created: utc},
			Ticket:   &model.Ticket{ID: "t", IncidentID: "i", Class: model.ClassPower, IsCrash: true, Opened: utc, Closed: utc},
			Incident: &model.Incident{ID: "i", Servers: []model.MachineID{"m"}}, ServerID: "s",
			Metric: monitordb.MetricNetKbps, Time: at(utc), Value: -3.5, On: &yes, Host: "h", Ref: true},
	}
}

// TestAppendEventTrickyValues holds AppendEvent to json.Marshal on every
// tricky event — same bytes or same error text — and EncodeJSONL to the
// json-only reference on each as a one-event batch.
func TestAppendEventTrickyValues(t *testing.T) {
	for name, ev := range trickyEvents() {
		t.Run(name, func(t *testing.T) {
			want, werr := json.Marshal(ev)
			fb0 := encodeFallbacks.Load()
			got, gerr := AppendEvent([]byte("prefix"), &ev)
			if (gerr == nil) != (werr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("error mismatch:\nfast: %v\njson: %v", gerr, werr)
			}
			// Only values json refuses should leave the fast path.
			if fell := encodeFallbacks.Load() > fb0; fell != (werr != nil) {
				t.Fatalf("fell back = %v, json error = %v", fell, werr)
			}
			if werr != nil {
				if string(got) != "prefix" {
					t.Fatalf("failed append left %q", got)
				}
			} else if !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("bytes differ:\nfast: %s\njson: %s", got[len("prefix"):], want)
			}
			checkEncodeParity(t, []Event{{Type: "advance"}, ev})
		})
	}
}

// checkRoundTrip decodes encoded through the pooled decoder, requires it
// to accept every line, and — when exact is set — requires the decoded
// events to re-encode to the same bytes. Callers clear exact for input
// json itself encodes lossily: invalid UTF-8 (replaced by U+FFFD) and
// zone offsets with a seconds part (truncated to minutes).
func checkRoundTrip(t *testing.T, encoded []byte, exact bool) {
	t.Helper()
	b := GetBatch()
	defer b.Release()
	if _, err := b.DecodeJSONLInto(bytes.NewReader(encoded)); err != nil {
		t.Fatalf("decode of encoder output %q: %v", encoded, err)
	}
	var again bytes.Buffer
	if err := EncodeJSONL(&again, b.Events); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if exact && !bytes.Equal(again.Bytes(), encoded) {
		t.Fatalf("round trip changed bytes:\nfirst:  %s\nsecond: %s", encoded, again.Bytes())
	}
}

// FuzzEncodeJSONL builds an event of every payload shape from fuzz values
// and holds AppendEvent to json.Marshal and EncodeJSONL to the json-only
// reference; output that encodes must round-trip through the decoder.
func FuzzEncodeJSONL(f *testing.F) {
	f.Add("sample", "S1-VM-0001", "desc", 1, 37.25, 1e-7, int64(1344124800), int64(0), int32(0), uint8(0))
	f.Add("ticket", "<a&b>", "x\u2028y", 3, 1e21, math.Copysign(0, -1), int64(1344124800), int64(123456789), int32(7200), uint8(7))
	f.Add("advance", "bad \xff", "\x00\n", -2, math.Inf(1), 5e-324, int64(253402300800), int64(1), int32(86400), uint8(255))
	f.Add("", "", "", 0, 0.0, 0.0, int64(-62167219201), int64(0), int32(-3600), uint8(2))
	f.Fuzz(func(t *testing.T, typ, id, text string, n int, v1, v2 float64, sec, nsec int64, zone int32, flags uint8) {
		if typ == "" {
			typ = "sample"
		}
		at := time.Unix(sec, nsec)
		if flags&1 == 0 {
			at = at.UTC()
		} else {
			at = at.In(time.FixedZone("", int(zone)))
		}
		later := at.Add(time.Duration(nsec))
		on := flags&2 != 0
		servers := []model.MachineID{model.MachineID(id), model.MachineID(text)}
		if flags&4 != 0 {
			servers = nil
		}
		events := []Event{
			{Type: typ, Machine: &model.Machine{ID: model.MachineID(id), Kind: model.MachineKind(n), System: model.System(n),
				Capacity: model.Capacity{CPUs: n, MemoryGB: v1, DiskGB: v2, Disks: -n}, HostID: model.MachineID(text), Created: at}},
			{Type: typ, Ticket: &model.Ticket{ID: id, ServerID: model.MachineID(text), IncidentID: text, System: model.System(n),
				Opened: at, Closed: later, Description: text, Resolution: typ, IsCrash: on, Class: model.FailureClass(n)}},
			{Type: typ, Incident: &model.Incident{ID: id, Class: model.FailureClass(n), Time: later, Servers: servers}},
			{Type: typ, ServerID: model.MachineID(id), Metric: monitordb.Metric(n), Time: &at, Value: v1, On: &on,
				Host: model.MachineID(text), Ref: flags&8 != 0},
		}
		for i := range events {
			want, werr := json.Marshal(events[i])
			got, gerr := AppendEvent(nil, &events[i])
			if (gerr == nil) != (werr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("event %d error mismatch:\nfast: %v\njson: %v", i, gerr, werr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("event %d bytes differ:\nfast: %s\njson: %s", i, got, want)
			}
		}
		encoded := checkEncodeParity(t, events)
		if encoded != nil {
			exact := utf8.ValidString(typ) && utf8.ValidString(id) && utf8.ValidString(text) &&
				(flags&1 == 0 || zone%60 == 0)
			checkRoundTrip(t, encoded, exact)
		}
	})
}

// TestEncodeJSONLWriteError pins that a failing writer's error surfaces.
func TestEncodeJSONLWriteError(t *testing.T) {
	events, err := studyEvents()
	if err != nil {
		t.Fatal(err)
	}
	w := failWriter{}
	if err := EncodeJSONL(w, events[:10]); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the writer's error", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
