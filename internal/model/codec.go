package model

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"failscope/internal/jsonl"
	"failscope/internal/par"
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

// decodeFast / decodeFallback count, process-wide, how many dump records
// Decode scanned itself versus handed to encoding/json. The parity tests
// use them to prove canonical Encode output never falls back.
var decodeFast, decodeFallback atomic.Int64

var recordKinds = []string{"header", "machine", "ticket", "incident"}

// recordKeys lists jsonlRecord's JSON keys for the case-fold check.
var recordKeys = []string{"kind", "header", "machine", "ticket", "incident"}

// machineSlab is how many machines one backing array holds: Decode hands
// out pointers into slabs instead of allocating each machine alone.
const machineSlab = 256

// record is one decoded dump line: jsonlRecord with its bodies held by
// value, so a block of records stays valid after the worker that parsed
// it moves on. The has* flags stand for jsonlRecord's non-nil pointers.
type record struct {
	kind                                          string
	hasWindow, hasMachine, hasTicket, hasIncident bool
	fallback                                      bool // decoded by json.Unmarshal
	window                                        Window
	machine                                       Machine
	ticket                                        Ticket
	incident                                      Incident
}

// setFrom copies a json.Unmarshal result into rec.
func (rec *record) setFrom(jr *jsonlRecord) {
	*rec = record{kind: jr.Kind, fallback: true}
	if jr.Header != nil {
		rec.hasWindow, rec.window = true, *jr.Header
	}
	if jr.Machine != nil {
		rec.hasMachine, rec.machine = true, *jr.Machine
	}
	if jr.Ticket != nil {
		rec.hasTicket, rec.ticket = true, *jr.Ticket
	}
	if jr.Incident != nil {
		rec.hasIncident, rec.incident = true, *jr.Incident
	}
}

// parseRecord scans one line into rec, or reports that it must fall back.
func parseRecord(p *jsonl.Parser, line []byte, rec *record) bool {
	p.Reset(line)
	ok := p.Object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			var ok bool
			rec.kind, ok = p.Enum(recordKinds)
			return ok
		case "header":
			return parseBody(p, &rec.hasWindow, &rec.window, parseWindow)
		case "machine":
			return parseBody(p, &rec.hasMachine, &rec.machine, ParseMachine)
		case "ticket":
			return parseBody(p, &rec.hasTicket, &rec.ticket, ParseTicket)
		case "incident":
			return parseBody(p, &rec.hasIncident, &rec.incident, ParseIncident)
		}
		return p.UnknownKey(key, recordKeys)
	})
	return ok && p.End()
}

// parseBody scans one of jsonlRecord's pointer fields the way json fills
// a pointer: null clears it, an object merges into the present value or
// into a fresh zero one.
func parseBody[T any](p *jsonl.Parser, has *bool, v *T, parse func(*jsonl.Parser, *T) bool) bool {
	if p.Null() {
		*has = false
		return true
	}
	if !*has {
		var zero T
		*v, *has = zero, true
	}
	return parse(p, v)
}

// parseLine is the pipeline's per-line step, on one worker's parser: the
// scanner, else json.Unmarshal, so values and error text match
// encoding/json's.
func parseLine(p *jsonl.Parser, line []byte, num int, rec *record) error {
	*rec = record{}
	if parseRecord(p, line, rec) {
		return nil
	}
	var jr jsonlRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return fmt.Errorf("model: decode line %d: %w", num, err)
	}
	rec.setFrom(&jr)
	return nil
}

// Decode reads a dataset previously written with Encode, parsing on
// GOMAXPROCS workers.
func Decode(r io.Reader) (*Dataset, error) {
	d, _, err := DecodeParallel(r, 0)
	return d, err
}

// DecodeParallel is Decode on par.Workers(parallelism) workers; the
// dataset is the same at every worker count. The stats count the records
// and the workers' parse time.
func DecodeParallel(r io.Reader, parallelism int) (*Dataset, par.Stats, error) {
	return decode(r, par.Workers(parallelism), jsonl.BlockLines)
}

// decode runs the jsonl block pipeline over r. The fold checks every
// record in file order, so the first error in the file is the one
// reported, with its line number.
func decode(r io.Reader, workers, blockLines int) (*Dataset, par.Stats, error) {
	d := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		nFast, nFB int64
		sawHeader  bool
		machines   []Machine
	)
	defer func() {
		decodeFast.Add(nFast)
		decodeFallback.Add(nFB)
	}()
	st, err := jsonl.Decode(sc, workers, blockLines, parseLine, func(line int, rec *record) error {
		if rec.fallback {
			nFB++
		} else {
			nFast++
		}
		switch rec.kind {
		case "header":
			if !rec.hasWindow {
				return fmt.Errorf("model: line %d: header record without window", line)
			}
			if sawHeader {
				return fmt.Errorf("model: line %d: duplicate header record", line)
			}
			d.Observation = rec.window
			sawHeader = true
		case "machine":
			if !rec.hasMachine {
				return fmt.Errorf("model: line %d: machine record without body", line)
			}
			if len(machines) == cap(machines) {
				machines = make([]Machine, 0, machineSlab)
			}
			machines = append(machines, rec.machine)
			d.Machines = append(d.Machines, &machines[len(machines)-1])
		case "ticket":
			if !rec.hasTicket {
				return fmt.Errorf("model: line %d: ticket record without body", line)
			}
			d.Tickets = append(d.Tickets, rec.ticket)
		case "incident":
			if !rec.hasIncident {
				return fmt.Errorf("model: line %d: incident record without body", line)
			}
			d.Incidents = append(d.Incidents, rec.incident)
		default:
			return fmt.Errorf("model: line %d: unknown record kind %q", line, rec.kind)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	if err := sc.Err(); err != nil {
		return nil, st, fmt.Errorf("model: read dataset: %w", err)
	}
	if !sawHeader {
		return nil, st, fmt.Errorf("model: dataset missing header record")
	}
	d.Index()
	return d, st, nil
}
