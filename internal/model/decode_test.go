package model

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// canonicalDataset builds a dataset exercising every field Encode writes,
// including text the encoder escapes (quotes, control characters, HTML
// characters, non-ASCII, U+2028).
func canonicalDataset() *Dataset {
	machines := []*Machine{
		{ID: "box-1", Kind: Box, System: SysI, Created: t0.AddDate(-1, 0, 0)},
	}
	var tickets []Ticket
	for i := 0; i < 40; i++ {
		id := MachineID(fmt.Sprintf("S%d-VM-%04d", i%NumSystems+1, i))
		machines = append(machines, &Machine{
			ID: id, Kind: VM, System: System(i%NumSystems + 1), HostID: "box-1",
			Capacity: Capacity{CPUs: 1 + i%8, MemoryGB: 0.5 * float64(i), DiskGB: 1e-3 * float64(i*i), Disks: i % 3},
			Created:  t0.Add(time.Duration(i) * 90 * time.Minute).Add(time.Duration(i) * 123456789),
		})
		tickets = append(tickets, Ticket{
			ID: fmt.Sprintf("T%06d", i), ServerID: id, System: System(i%NumSystems + 1),
			IncidentID:  map[bool]string{true: "I1"}[i%7 == 0],
			Opened:      t0.Add(time.Duration(i) * 36 * time.Hour),
			Closed:      t0.Add(time.Duration(i)*36*time.Hour + time.Duration(i)*time.Minute),
			Description: fmt.Sprintf("server %d \"unreachable\"\tping <fails> & retries\n café ✓ \u2028 #%d", i, i),
			Resolution:  `rebooted \ restored / done`,
			IsCrash:     i%2 == 0, Class: FailureClass(i % 7),
		})
	}
	machines = append(machines, &Machine{ID: "pm-1", Kind: PM, System: SysII, Created: t0})
	incidents := []Incident{
		{ID: "I1", Class: ClassPower, Time: t0.Add(time.Hour), Servers: []MachineID{"S1-VM-0000", "S3-VM-0007"}},
		{ID: "I2", Class: ClassHardware, Time: t0.Add(90 * time.Minute), Servers: []MachineID{"pm-1"}},
		{ID: "I3", Class: ClassNetwork, Time: t0.Add(2 * time.Hour), Servers: []MachineID{}},
		{ID: "I4", Class: ClassOther, Time: t0.Add(3 * time.Hour)},
	}
	return NewDataset(obs, machines, tickets, incidents)
}

const datasetHeader = `{"kind":"header","header":{"start":"2012-07-01T00:00:00Z","end":"2013-07-01T00:00:00Z"}}`

// trickyDatasetLines are records a canonical encoder never writes —
// reordered keys, whitespace, nulls on scalar and pointer fields, duplicate
// and case-folded keys, non-Z offsets, escapes, surrogates, invalid UTF-8,
// unknown fields — each decoded after a header line. The fast decoder must
// match the json-only one on every one, by value or by error text.
var trickyDatasetLines = []string{
	`  { "ticket" : { "serverID" : "m" , "id" : "T1" } , "kind" : "ticket" }  `,
	`{"kind":"ticket","ticket":{"id":"T1","system":null,"isCrash":null,"class":null,"opened":null}}`,
	`{"kind":"ticket","ticket":null}`,
	`{"kind":"machine","machine":null}`,
	`{"kind":"machine","machine":{"id":"m","capacity":null,"hostID":null}}`,
	`{"kind":"ticket","ticket":{"id":"a","id":"b"}}`,
	`{"kind":"ticket","ticket":{"id":"a"},"ticket":{"serverID":"b"}}`,
	`{"kind":"machine","machine":{"id":"a"},"machine":null,"machine":{"kind":2}}`,
	`{"kind":"ticket","kind":"machine","machine":{"id":"m"}}`,
	`{"KIND":"machine","machine":{"id":"m"}}`,
	`{"kind":"machine","machine":{"ID":"m","Capacity":{"CPUS":2}}}`,
	`{"kind":"machine","machine":{"id":"m","ſystem":2}}`,
	`{"kind":"machine","machine":{"id":"m","created":"2012-01-01T02:00:00+02:00"}}`,
	`{"kind":"machine","machine":{"id":"m","created":"2012-01-01T00:00:00.123456789Z"}}`,
	`{"kind":"machine","machine":{"id":"m","created":"2012-02-30T00:00:00Z"}}`,
	`{"kind":"ticket","ticket":{"id":"T1","description":"q\"b\\s\/b\bf\fn\nr\rt\t\u00e9\u003c"}}`,
	`{"kind":"ticket","ticket":{"id":"T1","description":"pair \ud83d\ude00 lone \ud800"}}`,
	"{\"kind\":\"ticket\",\"ticket\":{\"id\":\"T1\",\"description\":\"bad \xff byte\"}}",
	`{"kind":"machine","machine":{"id":"m","capacity":{"memoryGB":-1.25e+2,"diskGB":5e-324,"cpus":-0}}}`,
	`{"kind":"incident","incident":{"id":"i","servers":[]}}`,
	`{"kind":"incident","incident":{"id":"i","servers":null}}`,
	`{"kind":"incident","incident":{"id":"i","servers":[ "a" , "b" ],"servers":["c"]}}`,
	`{"kind":"machine","machine":{"id":"m"},"future":{"a":[1,2,{"b":null}],"c":"x\n","d":true}}`,
	`{"kind":"machine","machine":{"id":"m"},"future":"\q"}`,
	`{"kind":"header","header":{"start":"2012-07-01T00:00:00Z"},"header":{"end":null}}`,
	`{"kind":"bogus"}`,
	`{"kind":null}`,
	`null`,
}

// malformedDatasetInputs must fail in both decoders with identical text.
var malformedDatasetInputs = []string{
	"not json",
	datasetHeader + "\nnot json",
	datasetHeader + `{"kind":"machine","machine":{"capacity":{"cpus":1.5}}}`,
	datasetHeader + "\n" + `{"kind":"machine","machine":{"capacity":{"cpus":1.5}}}`,
	datasetHeader + "\n" + `{"kind":"machine","machine":{"kind":01}}`,
	datasetHeader + "\n" + `{"kind":"ticket","ticket":{"opened":"2012-13-40T00:00:00Z"}}`,
	datasetHeader + "\n" + `{"kind":"ticket","ticket":{"id":"T1"}} trailing`,
	datasetHeader + "\n" + "{\"kind\":\"tick\x01et\"}",
	datasetHeader + "\n" + `{"kind":"ticket","ticket":{"isCrash":"yes"}}`,
	datasetHeader + "\n" + `{"kind":"ticket","ticket":{"system":99999999999999999999}}`,
	datasetHeader + "\n" + `{"kind":"machine","machine":{"capacity":{"memoryGB":1e400}}}`,
	datasetHeader + "\n" + datasetHeader,
	`{"kind":"machine","machine":{"id":"m"}}`,
}

// checkDatasetParity decodes in through both decoders and reports any
// difference in value or error text.
func checkDatasetParity(t *testing.T, in []byte) {
	t.Helper()
	want, werr := decodeJSONOnly(bytes.NewReader(in))
	got, gerr := Decode(bytes.NewReader(in))
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("error mismatch on %q:\nfast:      %v\njson-only: %v", in, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("dataset mismatch on %q:\nfast:      %+v\njson-only: %+v", in, got, want)
	}
}

// TestDecodeMatchesJSONOnly round-trips canonical Encode output through
// both decoders: equal datasets, and every line on the fast path.
func TestDecodeMatchesJSONOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := canonicalDataset().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fast0, fb0 := decodeFast.Load(), decodeFallback.Load()
	checkDatasetParity(t, buf.Bytes())
	lines := int64(bytes.Count(buf.Bytes(), []byte("\n")))
	if fb := decodeFallback.Load() - fb0; fb != 0 {
		t.Fatalf("canonical lines fell back to encoding/json: %d", fb)
	}
	if n := decodeFast.Load() - fast0; n != lines {
		t.Fatalf("fast-path lines = %d, want %d", n, lines)
	}
}

func TestDecodeDuplicateHeader(t *testing.T) {
	_, err := Decode(strings.NewReader(datasetHeader + "\n" + datasetHeader + "\n"))
	if want := "model: line 2: duplicate header record"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestDecodeTrickyLines(t *testing.T) {
	for i, line := range trickyDatasetLines {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkDatasetParity(t, []byte(datasetHeader+"\n"+line))
		})
	}
}

func TestDecodeMalformedErrorText(t *testing.T) {
	for i, in := range malformedDatasetInputs {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			if _, err := Decode(strings.NewReader(in)); err == nil {
				t.Fatalf("Decode(%q) accepted", in)
			}
			checkDatasetParity(t, []byte(in))
		})
	}
}

// TestDecodeSteadyStateAllocs pins the fast decoder's allocations per
// ticket line: the five retained strings (id, server, incident,
// description, resolution) plus amortized slice growth. Maps, boxed fields
// and per-line records are not in the budget.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	var dump bytes.Buffer
	dump.WriteString(datasetHeader + "\n")
	const n = 512
	for i := 0; i < n; i++ {
		fmt.Fprintf(&dump, `{"kind":"ticket","ticket":{"id":"T%06d","serverID":"S1-VM-%04d","incidentID":"I%d","system":1,"opened":"2012-08-01T10:00:00Z","closed":"2012-08-01T14:45:30Z","description":"server unreachable","resolution":"rebooted","isCrash":true,"class":3}}`, i, i%64, i%9)
		dump.WriteByte('\n')
	}
	raw := dump.Bytes()
	rd := bytes.NewReader(raw)
	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		if _, err := Decode(rd); err != nil {
			t.Fatal(err)
		}
	})
	perLine := avg / n
	t.Logf("%.3f allocs/line", perLine)
	// Measured 5.03/line (5 strings; growth, scanner and index amortize).
	if perLine > 5.25 {
		t.Fatalf("Decode allocates %.2f allocs/line (%.0f total), budget 5.25", perLine, avg)
	}
}

// FuzzDecodeDataset holds the fast decoder to the json-only one on
// arbitrary input: equal datasets or identical error text.
func FuzzDecodeDataset(f *testing.F) {
	var buf bytes.Buffer
	if err := canonicalDataset().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, line := range trickyDatasetLines {
		f.Add([]byte(datasetHeader + "\n" + line))
	}
	for _, in := range malformedDatasetInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDatasetParity(t, in)
	})
}
