package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"failscope/internal/mempool"
	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// decodeTestEvents builds a representative batch covering every event type
// and payload field the canonical encoder can emit.
func decodeTestEvents() []Event {
	at := func(s string) *time.Time {
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			panic(err)
		}
		return &t
	}
	on := true
	off := false
	return []Event{
		{Type: "machine", Machine: &model.Machine{
			ID: "S1-PM-0001", Kind: model.PM, System: model.System(1),
			Capacity: model.Capacity{CPUs: 16, MemoryGB: 96.5, DiskGB: 1863.0, Disks: 12},
			Created:  at("2011-07-01T00:00:00Z").UTC(),
		}},
		{Type: "machine", Machine: &model.Machine{
			ID: "S1-VM-0001", Kind: model.VM, System: model.System(1),
			Capacity: model.Capacity{CPUs: 4, MemoryGB: 8, DiskGB: 128.25, Disks: 1},
			HostID:   "S1-PM-0001", Created: at("2012-03-15T09:30:00.25Z").UTC(),
		}},
		{Type: "ticket", Ticket: &model.Ticket{
			ID: "T0000001", ServerID: "S1-PM-0001", IncidentID: "I000042",
			System: model.System(1), Opened: at("2012-08-01T10:00:00Z").UTC(),
			Closed:      at("2012-08-01T14:45:30Z").UTC(),
			Description: "RAID controller reports degraded array \"dm-3\"",
			Resolution:  "replaced disk\nrebuilt array", IsCrash: true,
			Class: model.FailureClass(3),
		}},
		{Type: "incident", Incident: &model.Incident{
			ID: "I000042", Class: model.FailureClass(3),
			Time:    at("2012-08-01T09:58:12Z").UTC(),
			Servers: []model.MachineID{"S1-PM-0001", "S1-VM-0001"},
		}},
		{Type: "sample", ServerID: "S1-VM-0001", Metric: monitordb.MetricCPUUtil,
			Time: at("2012-08-05T00:00:00Z"), Value: 37.25},
		{Type: "sample", ServerID: "S1-VM-0001", Metric: monitordb.MetricNetKbps,
			Time: at("2012-08-05T00:15:00Z"), Value: 1.0e-7},
		{Type: "power", ServerID: "S1-PM-0001", Time: at("2012-08-06T03:00:00Z"), On: &off},
		{Type: "power", ServerID: "S1-PM-0001", Time: at("2012-08-06T04:00:00Z"), On: &on},
		{Type: "placement", ServerID: "S1-VM-0001", Host: "S1-PM-0001",
			Time: at("2012-08-07T12:00:00Z")},
		{Type: "advance", Time: at("2012-09-01T00:00:00Z")},
	}
}

// TestDecodeJSONLIntoMatchesLegacy round-trips the canonical encoder's
// output through both decoders and requires identical events — and that
// every canonical line took the fast path.
func TestDecodeJSONLIntoMatchesLegacy(t *testing.T) {
	events := decodeTestEvents()
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	legacy, err := DecodeJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	fast0, fb0 := DecodeStats()
	b := GetBatch()
	defer b.Release()
	n, err := b.DecodeJSONLInto(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fast1, fb1 := DecodeStats()
	if fb1 != fb0 {
		t.Fatalf("canonical lines fell back to encoding/json: %d", fb1-fb0)
	}
	if fast1-fast0 != int64(len(events)) {
		t.Fatalf("fast-path lines = %d, want %d", fast1-fast0, len(events))
	}
	if n != len(legacy) {
		t.Fatalf("decoded %d events, legacy %d", n, len(legacy))
	}
	for i := range legacy {
		if !reflect.DeepEqual(b.Events[i], legacy[i]) {
			t.Errorf("event %d:\nfast:   %#v\nlegacy: %#v", i, b.Events[i], legacy[i])
			if b.Events[i].Time != nil && legacy[i].Time != nil && !b.Events[i].Time.Equal(*legacy[i].Time) {
				t.Errorf("event %d time: fast %v legacy %v", i, *b.Events[i].Time, *legacy[i].Time)
			}
		}
	}
}

// trickyEventLines are lines a canonical encoder would never produce —
// reordered keys, whitespace, escapes, unicode, nulls, unknown fields,
// exponents, duplicate keys, non-Z timezones.
var trickyEventLines = []string{
	// Whitespace and key reorder.
	`  { "value" : 3.5 , "type" : "sample" , "serverID" : "a" , "metric" : 1 , "time" : "2012-08-05T00:00:00Z" }  `,
	// Escapes, unicode, \u escape (non-surrogate).
	`{"type":"ticket","ticket":{"id":"T1","serverID":"s","system":1,"opened":"2012-08-01T10:00:00Z","closed":"2012-08-01T11:00:00Z","description":"tab\there \"quoted\" caf\u00e9 naïve","resolution":"done\\","isCrash":false}}`,
	// Nulls for pointers and unknown fields with nested payloads.
	`{"type":"advance","time":"2012-09-01T00:00:00Z","machine":null,"on":null,"future":{"a":[1,2,{"b":null}],"c":"x"}}`,
	// Exponent and negative floats, int zero.
	`{"type":"sample","serverID":"s","metric":0,"time":"2012-08-05T00:00:00Z","value":-1.25e+2}`,
	`{"type":"sample","serverID":"s","metric":2,"time":"2012-08-05T00:00:00Z","value":5e-324}`,
	// Duplicate scalar key: last one wins in both decoders.
	`{"type":"sample","serverID":"a","serverID":"b","metric":1,"time":"2012-08-05T00:00:00Z","value":1}`,
	// Duplicate struct key: both decoders merge into the same value.
	`{"type":"machine","machine":{"id":"a"},"machine":{"kind":2}}`,
	// Non-Z timezone: fast path defers to time.Parse via the fallback.
	`{"type":"advance","time":"2012-09-01T02:00:00+02:00"}`,
	// Fractional seconds at full precision.
	`{"type":"advance","time":"2012-09-01T00:00:00.123456789Z"}`,
	// Case-insensitive key match: json assigns it, fast path defers.
	`{"Type":"advance","TIME":"2012-09-01T00:00:00Z"}`,
	// Incident with empty and null servers.
	`{"type":"incident","incident":{"id":"i1","class":1,"time":"2012-08-01T00:00:00Z","servers":[]}}`,
	`{"type":"incident","incident":{"id":"i2","class":1,"time":"2012-08-01T00:00:00Z","servers":null}}`,
	// Empty object payloads.
	`{"type":"machine","machine":{}}`,
	`{"type":"machine","machine":{"id":"m","capacity":{}}}`,
	// Nesting past the scanner's depth bound falls back.
	`{"type":"advance","x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`,
}

// TestDecodeJSONLIntoTrickyLines feeds both decoders hand-written lines a
// canonical encoder would never produce — reordered keys, whitespace,
// escapes, unicode, nulls, unknown fields, exponents, duplicate keys,
// non-Z timezones — and requires bit-identical events and errors. Lines
// the fast path cannot certify fall back; either way the two decoders must
// agree.
func TestDecodeJSONLIntoTrickyLines(t *testing.T) {
	for i, line := range trickyEventLines {
		legacy, lerr := DecodeJSONL(strings.NewReader(line))
		b := GetBatch()
		n, ferr := b.DecodeJSONLInto(strings.NewReader(line))
		if (lerr == nil) != (ferr == nil) || (lerr != nil && lerr.Error() != ferr.Error()) {
			t.Errorf("line %d error mismatch:\nfast:   %v\nlegacy: %v", i, ferr, lerr)
			b.Release()
			continue
		}
		if lerr != nil {
			b.Release()
			continue
		}
		if n != len(legacy) {
			t.Errorf("line %d: decoded %d events, legacy %d", i, n, len(legacy))
			b.Release()
			continue
		}
		for j := range legacy {
			if !reflect.DeepEqual(b.Events[j], legacy[j]) {
				t.Errorf("line %d event %d:\nfast:   %#v\nlegacy: %#v", i, j, b.Events[j], legacy[j])
			}
		}
		b.Release()
	}
}

// malformedEventInputs must fail in both decoders with identical text.
var malformedEventInputs = []string{
	"{\"type\":\"advance\"}\nnot json",
	`{"type":""}`,
	`{}`,
	`{"type":"sample","metric":1.5}`,
	`{"type":"sample","value":"nope"}`,
	`{"type":"advance","time":"2012-13-40T00:00:00Z"}`,
	`{"type":"advance"} trailing`,
	`{"type":"adv` + "\x01" + `ance"}`,
	`{"type":"machine","machine":{"capacity":{"cpus":01}}}`,
	`{"type":"advance","x":"\q"}`,
	`{"type":"advance","x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}}`,
}

// TestDecodeJSONLIntoErrors pins error parity on malformed input: both
// decoders must fail with the same message and line number.
func TestDecodeJSONLIntoErrors(t *testing.T) {
	for i, in := range malformedEventInputs {
		_, lerr := DecodeJSONL(strings.NewReader(in))
		b := GetBatch()
		_, ferr := b.DecodeJSONLInto(strings.NewReader(in))
		b.Release()
		if lerr == nil && ferr == nil {
			continue
		}
		if (lerr == nil) != (ferr == nil) || lerr.Error() != ferr.Error() {
			t.Errorf("input %d error mismatch:\nfast:   %v\nlegacy: %v", i, ferr, lerr)
		}
	}
}

// TestDecodeJSONLIntoInvalidUTF8 pins the U+FFFD substitution parity:
// encoding/json replaces invalid UTF-8 rather than erroring, so those
// lines must fall back and come out identical.
func TestDecodeJSONLIntoInvalidUTF8(t *testing.T) {
	line := "{\"type\":\"ticket\",\"ticket\":{\"id\":\"T1\",\"serverID\":\"s\",\"system\":1,\"opened\":\"2012-08-01T10:00:00Z\",\"closed\":\"2012-08-01T11:00:00Z\",\"description\":\"bad \xff byte\",\"resolution\":\"r\",\"isCrash\":false}}"
	legacy, lerr := DecodeJSONL(strings.NewReader(line))
	b := GetBatch()
	defer b.Release()
	_, ferr := b.DecodeJSONLInto(strings.NewReader(line))
	if (lerr == nil) != (ferr == nil) {
		t.Fatalf("error mismatch: fast %v legacy %v", ferr, lerr)
	}
	if lerr == nil && !reflect.DeepEqual(b.Events[0], legacy[0]) {
		t.Fatalf("event mismatch:\nfast:   %#v\nlegacy: %#v", b.Events[0], legacy[0])
	}
}

// TestBatchReuse verifies a released batch comes back empty and is
// actually recycled by the pool.
func TestBatchReuse(t *testing.T) {
	if !mempool.Enabled() {
		t.Skip("pooling disabled")
	}
	b := GetBatch()
	if _, err := b.DecodeJSONLInto(strings.NewReader(`{"type":"advance","time":"2012-09-01T00:00:00Z"}`)); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 {
		t.Fatalf("decoded %d events", len(b.Events))
	}
	b.Release()
	b2 := GetBatch()
	defer b2.Release()
	if b2 != b {
		t.Fatalf("pool did not recycle the batch")
	}
	if len(b2.Events) != 0 || len(b2.times) != 0 {
		t.Fatalf("recycled batch not reset: %d events, %d times", len(b2.Events), len(b2.times))
	}
}

// TestDecodeSteadyStateAllocs pins the allocation count of the pooled
// decode path at steady state: one retained string per event payload field
// is the budget; maps, intermediate strings and boxed fields are not.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if !mempool.Enabled() {
		t.Skip("pooling disabled")
	}
	var lines bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&lines, `{"type":"sample","serverID":"S1-VM-%04d","metric":1,"time":"2012-08-05T00:00:00Z","value":%d.25}`, i, i)
		lines.WriteByte('\n')
	}
	raw := lines.Bytes()

	// Warm the pool so the batch and its arenas exist.
	warm := GetBatch()
	if _, err := warm.DecodeJSONLInto(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	warm.Release()

	rd := bytes.NewReader(raw)
	avg := testing.AllocsPerRun(20, func() {
		rd.Reset(raw)
		b := GetBatch()
		if _, err := b.DecodeJSONLInto(rd); err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	// Budget: 64 serverID strings + bufio.Scanner + small constant slack.
	// The legacy decoder spends ~14 allocs per event on the same input;
	// regressing past 2/event means boxing crept back in.
	perEvent := avg / 64
	if perEvent > 2 {
		t.Fatalf("pooled decode allocates %.2f allocs/event (%.0f total), budget 2/event", perEvent, avg)
	}
}

// FuzzDecodeJSONL holds the pooled zero-copy decoder to the legacy
// json.Unmarshal decoder on arbitrary input: equal events, or identical
// error text.
func FuzzDecodeJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, decodeTestEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, line := range trickyEventLines {
		f.Add([]byte(line))
	}
	for _, in := range malformedEventInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		legacy, lerr := DecodeJSONL(bytes.NewReader(in))
		b := GetBatch()
		defer b.Release()
		n, ferr := b.DecodeJSONLInto(bytes.NewReader(in))
		if (lerr == nil) != (ferr == nil) || (lerr != nil && lerr.Error() != ferr.Error()) {
			t.Fatalf("error mismatch on %q:\nfast:   %v\nlegacy: %v", in, ferr, lerr)
		}
		if lerr != nil {
			return
		}
		if n != len(legacy) {
			t.Fatalf("decoded %d events, legacy %d", n, len(legacy))
		}
		for i := range legacy {
			if !reflect.DeepEqual(b.Events[i], legacy[i]) {
				t.Fatalf("event %d of %q:\nfast:   %#v\nlegacy: %#v", i, in, b.Events[i], legacy[i])
			}
		}
	})
}
