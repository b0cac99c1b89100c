package model

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
	"unicode/utf8"
)

// encodeJSONOnly is Dataset.Encode through reflection: a json.Encoder
// over every record. It is the reference the parity tests, the fuzz
// target and BenchmarkDatasetEncodeLegacy hold Encode to.
func encodeJSONOnly(d *Dataset, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	records := make([]jsonlRecord, 0, 1+len(d.Machines)+len(d.Tickets)+len(d.Incidents))
	obs := d.Observation
	records = append(records, jsonlRecord{Kind: "header", Header: &obs})
	for _, m := range d.Machines {
		records = append(records, jsonlRecord{Kind: "machine", Machine: m})
	}
	for i := range d.Tickets {
		records = append(records, jsonlRecord{Kind: "ticket", Ticket: &d.Tickets[i]})
	}
	for i := range d.Incidents {
		records = append(records, jsonlRecord{Kind: "incident", Incident: &d.Incidents[i]})
	}
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("model: encode dataset: %w", err)
		}
	}
	return bw.Flush()
}

// checkEncodeParity encodes d through Encode and the json-only reference
// and requires the same bytes or the same error text. It returns the
// encoding, or nil when both failed.
func checkEncodeParity(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gerr := d.Encode(&got)
	werr := encodeJSONOnly(d, &want)
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

// TestEncodeCanonicalDataset encodes the hand-built canonical dataset
// both ways: identical bytes, no fallback. The small study's dataset is
// checked from the external test package (study_encode_test.go).
func TestEncodeCanonicalDataset(t *testing.T) {
	fb0 := encodeFallbacks.Load()
	checkEncodeParity(t, canonicalDataset())
	if fb := encodeFallbacks.Load() - fb0; fb != 0 {
		t.Fatalf("%d canonical records fell back to json.Marshal", fb)
	}
}

// TestEncodeTrickyValues holds Encode to the json-only reference on
// datasets holding escapes, float cutoffs, negative zero, zones,
// sub-second and out-of-range times, NaN, and empty or nil fields.
func TestEncodeTrickyValues(t *testing.T) {
	utc := time.Date(2012, 8, 5, 10, 0, 0, 0, time.UTC)
	cest := time.FixedZone("CEST", 2*3600)
	machine := func(m Machine) *Dataset { return NewDataset(obs, []*Machine{&m}, nil, nil) }
	ticket := func(tk Ticket) *Dataset { return NewDataset(obs, nil, []Ticket{tk}, nil) }
	incident := func(inc Incident) *Dataset { return NewDataset(obs, nil, nil, []Incident{inc}) }
	cases := map[string]*Dataset{
		"html":           ticket(Ticket{ID: "<t>&", Description: "a<b>c&d", Opened: utc, Closed: utc}),
		"u2028":          ticket(Ticket{ID: "t", Description: "x\u2028y\u2029z", Opened: utc, Closed: utc}),
		"invalid-utf8":   ticket(Ticket{ID: "t\xff", Resolution: "\xe2\x80", Opened: utc, Closed: utc}),
		"control":        ticket(Ticket{ID: "t", Description: "\x00\x1f\x7f\b\f\n\r\t\"\\", Opened: utc, Closed: utc}),
		"float-1e-7":     machine(Machine{ID: "m", Capacity: Capacity{MemoryGB: 1e-7, DiskGB: 9.999999e-7}}),
		"float-1e21":     machine(Machine{ID: "m", Capacity: Capacity{MemoryGB: 1e21, DiskGB: 1e20}}),
		"negative-zero":  machine(Machine{ID: "m", Capacity: Capacity{MemoryGB: math.Copysign(0, -1)}}),
		"non-utc":        machine(Machine{ID: "m", Created: time.Date(2012, 1, 1, 2, 0, 0, 0, cest)}),
		"local":          machine(Machine{ID: "m", Created: utc.Local()}),
		"sub-second":     machine(Machine{ID: "m", Created: utc.Add(123456789)}),
		"year-0":         machine(Machine{ID: "m", Created: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)}),
		"year-10000":     machine(Machine{ID: "m", Created: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}),
		"window-10000":   NewDataset(Window{Start: utc, End: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}, nil, nil, nil),
		"window-non-utc": NewDataset(Window{Start: utc.In(cest), End: utc}, nil, nil, nil),
		"nan":            machine(Machine{ID: "m", Capacity: Capacity{DiskGB: math.NaN()}}),
		"inf":            machine(Machine{ID: "m", Capacity: Capacity{MemoryGB: math.Inf(1)}}),
		"nil-machine":    {Observation: obs, Machines: []*Machine{nil}},
		"empty-records":  NewDataset(Window{}, []*Machine{{}}, []Ticket{{}}, []Incident{{}}),
		"servers-nil":    incident(Incident{ID: "i", Time: utc}),
		"servers-empty":  incident(Incident{ID: "i", Time: utc, Servers: []MachineID{}}),
		"incident-year":  incident(Incident{ID: "i", Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}),
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			checkEncodeParity(t, d)
		})
	}
}

// FuzzEncodeDataset builds a dataset with one record of each kind from
// fuzz values and holds Encode to the json-only reference; output that
// encodes must decode, and re-encode to the same bytes.
func FuzzEncodeDataset(f *testing.F) {
	f.Add("S1-VM-0001", "server \"unreachable\"", 1, 37.25, 1e-7, int64(1344124800), int64(0), int32(0), uint8(0))
	f.Add("<a&b>", "x\u2028y", 3, 1e21, math.Copysign(0, -1), int64(1344124800), int64(123456789), int32(7200), uint8(7))
	f.Add("bad \xff", "\x00\n", -2, math.NaN(), 5e-324, int64(253402300800), int64(1), int32(86400), uint8(255))
	f.Fuzz(func(t *testing.T, id, text string, n int, v1, v2 float64, sec, nsec int64, zone int32, flags uint8) {
		at := time.Unix(sec, nsec)
		if flags&1 == 0 {
			at = at.UTC()
		} else {
			at = at.In(time.FixedZone("", int(zone)))
		}
		servers := []MachineID{MachineID(id), MachineID(text)}
		if flags&2 != 0 {
			servers = nil
		}
		d := NewDataset(Window{Start: at, End: at.Add(time.Duration(nsec))},
			[]*Machine{{ID: MachineID(id), Kind: MachineKind(n), System: System(n), HostID: MachineID(text), Created: at,
				Capacity: Capacity{CPUs: n, MemoryGB: v1, DiskGB: v2, Disks: -n}}},
			[]Ticket{{ID: id, ServerID: MachineID(text), IncidentID: text, System: System(n), Opened: at, Closed: at,
				Description: text, Resolution: id, IsCrash: flags&4 != 0, Class: FailureClass(n)}},
			[]Incident{{ID: text, Class: FailureClass(n), Time: at, Servers: servers}})
		encoded := checkEncodeParity(t, d)
		if encoded == nil {
			return
		}
		back, err := Decode(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("decode of encoder output %q: %v", encoded, err)
		}
		var again bytes.Buffer
		if err := back.Encode(&again); err != nil {
			t.Fatal(err)
		}
		// json encodes invalid UTF-8 and sub-minute zone offsets lossily.
		exact := utf8.ValidString(id) && utf8.ValidString(text) && (flags&1 == 0 || zone%60 == 0)
		if exact && !bytes.Equal(again.Bytes(), encoded) {
			t.Fatalf("round trip changed bytes:\nfirst:  %s\nsecond: %s", encoded, again.Bytes())
		}
	})
}
