package model

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"failscope/internal/jsonl"
)

// The on-disk format is JSON Lines: a header record followed by one record
// per machine, ticket and incident. Line-oriented encoding keeps multi-
// hundred-megabyte datasets streamable and diff-friendly.

type jsonlRecord struct {
	Kind     string    `json:"kind"` // "header" | "machine" | "ticket" | "incident"
	Header   *Window   `json:"header,omitempty"`
	Machine  *Machine  `json:"machine,omitempty"`
	Ticket   *Ticket   `json:"ticket,omitempty"`
	Incident *Incident `json:"incident,omitempty"`
}

// encodeFallbacks counts, process-wide, the records Encode handed to
// json.Marshal because a value was outside what the appenders certify.
// The parity tests use it to prove canonical datasets never fall back.
var encodeFallbacks atomic.Int64

// Encode writes the dataset to w as JSON Lines: encoding/json's bytes for
// each record, appended without reflection (see AppendMachine and
// friends).
func (d *Dataset) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte
	emit := func(rec *jsonlRecord) error {
		var err error
		if line, err = jsonl.AppendOr(line[:0], rec, appendRecordFast, &encodeFallbacks); err != nil {
			return fmt.Errorf("model: encode dataset: %w", err)
		}
		line = append(line, '\n')
		_, err = bw.Write(line)
		return err
	}
	// One record, refilled per line, so no line allocates.
	obs := d.Observation
	rec := jsonlRecord{Kind: "header", Header: &obs}
	if err := emit(&rec); err != nil {
		return err
	}
	rec = jsonlRecord{Kind: "machine"}
	for _, m := range d.Machines {
		rec.Machine = m
		if err := emit(&rec); err != nil {
			return err
		}
	}
	rec = jsonlRecord{Kind: "ticket"}
	for i := range d.Tickets {
		rec.Ticket = &d.Tickets[i]
		if err := emit(&rec); err != nil {
			return err
		}
	}
	rec = jsonlRecord{Kind: "incident"}
	for i := range d.Incidents {
		rec.Incident = &d.Incidents[i]
		if err := emit(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendRecordFast(dst []byte, rec *jsonlRecord) ([]byte, bool) {
	dst = append(dst, `{"kind":`...)
	dst = jsonl.AppendString(dst, rec.Kind)
	ok := true
	if rec.Header != nil {
		dst = append(dst, `,"header":`...)
		if dst, ok = AppendWindow(dst, rec.Header); !ok {
			return dst, false
		}
	}
	if rec.Machine != nil {
		dst = append(dst, `,"machine":`...)
		if dst, ok = AppendMachine(dst, rec.Machine); !ok {
			return dst, false
		}
	}
	if rec.Ticket != nil {
		dst = append(dst, `,"ticket":`...)
		if dst, ok = AppendTicket(dst, rec.Ticket); !ok {
			return dst, false
		}
	}
	if rec.Incident != nil {
		dst = append(dst, `,"incident":`...)
		if dst, ok = AppendIncident(dst, rec.Incident); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// decodeFast / decodeFallback count, process-wide, how many dump lines
// Decode scanned itself versus handed to encoding/json. The parity tests
// use them to prove canonical Encode output never falls back.
var decodeFast, decodeFallback atomic.Int64

var recordKinds = []string{"header", "machine", "ticket", "incident"}

// recordKeys lists jsonlRecord's JSON keys for the case-fold check.
var recordKeys = []string{"kind", "header", "machine", "ticket", "incident"}

// machineSlab is how many machines one backing array holds: Decode hands
// out pointers into slabs instead of allocating each machine alone.
const machineSlab = 256

// scanner holds the fast path's per-decode state: the parser and the
// storage its records point into. Header, ticket and incident are copied
// out by Decode, so one value of each is reused; machines are retained by
// pointer, so they come from slabs.
type scanner struct {
	p        jsonl.Parser
	window   Window
	ticket   Ticket
	incident Incident
	machines []Machine
}

// parse scans one line into rec, or reports that it must fall back.
func (s *scanner) parse(line []byte, rec *jsonlRecord) bool {
	p := &s.p
	p.Reset(line)
	ok := p.Object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			var ok bool
			rec.Kind, ok = p.Enum(recordKinds)
			return ok
		case "header":
			if p.Null() {
				rec.Header = nil
				return true
			}
			if rec.Header == nil {
				s.window = Window{}
				rec.Header = &s.window
			}
			return parseWindow(p, rec.Header)
		case "machine":
			if p.Null() {
				rec.Machine = nil
				return true
			}
			if rec.Machine == nil {
				if len(s.machines) == cap(s.machines) {
					s.machines = make([]Machine, 0, machineSlab)
				}
				s.machines = append(s.machines, Machine{})
				rec.Machine = &s.machines[len(s.machines)-1]
			}
			return ParseMachine(p, rec.Machine)
		case "ticket":
			if p.Null() {
				rec.Ticket = nil
				return true
			}
			if rec.Ticket == nil {
				s.ticket = Ticket{}
				rec.Ticket = &s.ticket
			}
			return ParseTicket(p, rec.Ticket)
		case "incident":
			if p.Null() {
				rec.Incident = nil
				return true
			}
			if rec.Incident == nil {
				s.incident = Incident{}
				rec.Incident = &s.incident
			}
			return ParseIncident(p, rec.Incident)
		}
		return p.UnknownKey(key, recordKeys)
	})
	return ok && p.End()
}

// Decode reads a dataset previously written with Encode. Lines the
// jsonl scanner cannot decode exactly as encoding/json would go to
// json.Unmarshal, so values and error text match decodeJSONOnly.
func Decode(r io.Reader) (*Dataset, error) { return decode(r, true) }

// decodeJSONOnly is Decode with every line through json.Unmarshal: the
// reference the parity tests and the fuzz target hold Decode to.
func decodeJSONOnly(r io.Reader) (*Dataset, error) { return decode(r, false) }

func decode(r io.Reader, fast bool) (*Dataset, error) {
	d := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		s          scanner
		rec        jsonlRecord
		nFast, nFB int64
		line       int
		sawHeader  bool
	)
	defer func() {
		decodeFast.Add(nFast)
		decodeFallback.Add(nFB)
	}()
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec = jsonlRecord{}
		if fast && s.parse(raw, &rec) {
			nFast++
		} else {
			if fast {
				nFB++
				rec = jsonlRecord{}
			}
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("model: decode line %d: %w", line, err)
			}
		}
		switch rec.Kind {
		case "header":
			if rec.Header == nil {
				return nil, fmt.Errorf("model: line %d: header record without window", line)
			}
			if sawHeader {
				return nil, fmt.Errorf("model: line %d: duplicate header record", line)
			}
			d.Observation = *rec.Header
			sawHeader = true
		case "machine":
			if rec.Machine == nil {
				return nil, fmt.Errorf("model: line %d: machine record without body", line)
			}
			d.Machines = append(d.Machines, rec.Machine)
		case "ticket":
			if rec.Ticket == nil {
				return nil, fmt.Errorf("model: line %d: ticket record without body", line)
			}
			d.Tickets = append(d.Tickets, *rec.Ticket)
		case "incident":
			if rec.Incident == nil {
				return nil, fmt.Errorf("model: line %d: incident record without body", line)
			}
			d.Incidents = append(d.Incidents, *rec.Incident)
		default:
			return nil, fmt.Errorf("model: line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("model: read dataset: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("model: dataset missing header record")
	}
	d.Index()
	return d, nil
}
