package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"failscope/internal/jsonl"
	"failscope/internal/mempool"
	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// This file is the zero-copy JSONL event decoder: it scans the known Event
// schema with the shared jsonl.Parser (machines, tickets and incidents
// through model's typed scanners) and lands the decoded payloads in a
// pooled Batch whose arenas are recycled across requests. The fast path
// only accepts input it can decode bit-for-bit the way encoding/json
// would; anything it is not certain about (non-UTC timezones, surrogate
// escapes, invalid UTF-8, malformed syntax) falls back to json.Unmarshal
// for that line, so observable behavior — values and error text alike —
// is unchanged. TestDecodeJSONLIntoMatchesLegacy and FuzzDecodeJSONL hold
// the two decoders equal.

// decodeFastLines / decodeFallbackLines count, process-wide, how many
// lines the scanner decoded itself versus delegated. The equivalence tests
// use them to prove canonical encoder output never falls back.
var decodeFastLines, decodeFallbackLines atomic.Int64

// DecodeStats reports how many JSONL lines were decoded by the fast
// scanner and how many fell back to encoding/json since process start.
func DecodeStats() (fast, fallback int64) {
	return decodeFastLines.Load(), decodeFallbackLines.Load()
}

// Batch is a decoded event batch backed by pooled arenas: the Event slice
// plus the time/bool/machine/ticket/incident values its pointer fields
// reference. A Batch obtained from GetBatch is owned by the caller until
// Release; the engine copies everything it keeps (see DESIGN.md §11), so
// releasing after Apply is safe.
type Batch struct {
	Events []Event

	times     []time.Time
	bools     []bool
	machines  []model.Machine
	tickets   []model.Ticket
	incidents []model.Incident

	parser  jsonl.Parser // keeps its unescape scratch across batches
	readBuf []byte       // initial bufio.Scanner buffer
}

const batchReadBufSize = 1 << 20

var batchPool = mempool.New("stream.batch", 32,
	func() *Batch { return &Batch{readBuf: make([]byte, 0, batchReadBufSize)} },
	func(b *Batch) *Batch { b.reset(); return b },
)

// GetBatch returns an empty batch from the pool.
func GetBatch() *Batch { return batchPool.Get() }

// Release recycles the batch. The caller must not touch the batch, its
// events, or anything its events point to afterwards.
func (b *Batch) Release() { batchPool.Put(b) }

// reset empties the batch for reuse, keeping arena capacity. The
// string-bearing arenas are cleared so recycled batches do not pin the
// previous request's ticket text.
func (b *Batch) reset() {
	clearSlice(b.Events)
	clearSlice(b.machines)
	clearSlice(b.tickets)
	clearSlice(b.incidents)
	b.Events = b.Events[:0]
	b.times = b.times[:0]
	b.bools = b.bools[:0]
	b.machines = b.machines[:0]
	b.tickets = b.tickets[:0]
	b.incidents = b.incidents[:0]
	b.parser.Reset(nil) // drop the view of the last request's read buffer
}

func clearSlice[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}

// DecodeJSONLInto appends a JSONL event batch to b. Errors name the
// 1-based line number of the offending record, exactly as DecodeJSONL
// does. Returns the number of events appended.
func (b *Batch) DecodeJSONLInto(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	buf := b.readBuf
	if cap(buf) == 0 {
		buf = make([]byte, 0, batchReadBufSize)
	}
	sc.Buffer(buf, 1<<24)
	start := len(b.Events)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		b.Events = append(b.Events, Event{})
		ev := &b.Events[len(b.Events)-1]
		if b.fastParseEvent(raw, ev) {
			decodeFastLines.Add(1)
		} else {
			decodeFallbackLines.Add(1)
			*ev = Event{}
			if err := json.Unmarshal(raw, ev); err != nil {
				b.Events = b.Events[:len(b.Events)-1]
				return len(b.Events) - start, fmt.Errorf("stream: line %d: %w", line, err)
			}
		}
		if ev.Type == "" {
			b.Events = b.Events[:len(b.Events)-1]
			return len(b.Events) - start, fmt.Errorf("stream: line %d: event without type", line)
		}
	}
	if err := sc.Err(); err != nil {
		return len(b.Events) - start, fmt.Errorf("stream: read: %w", err)
	}
	return len(b.Events) - start, nil
}

// eventKeys lists Event's JSON keys for the case-fold check.
var eventKeys = []string{"type", "machine", "ticket", "incident", "serverID", "metric", "time", "value", "on", "host", "ref"}

// fastParseEvent parses one line into ev, using the batch arenas for the
// pointer payloads. Returns false (leaving ev in an undefined state the
// caller must reset) when the line needs the encoding/json fallback.
func (b *Batch) fastParseEvent(line []byte, ev *Event) bool {
	p := &b.parser
	p.Reset(line)
	ok := p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "type":
			ev.Type, ok = p.String()
		case "machine":
			if p.Null() {
				ev.Machine = nil
				return true
			}
			if ev.Machine == nil {
				b.machines = append(b.machines, model.Machine{})
				ev.Machine = &b.machines[len(b.machines)-1]
			}
			ok = model.ParseMachine(p, ev.Machine)
		case "ticket":
			if p.Null() {
				ev.Ticket = nil
				return true
			}
			if ev.Ticket == nil {
				b.tickets = append(b.tickets, model.Ticket{})
				ev.Ticket = &b.tickets[len(b.tickets)-1]
			}
			ok = model.ParseTicket(p, ev.Ticket)
		case "incident":
			if p.Null() {
				ev.Incident = nil
				return true
			}
			if ev.Incident == nil {
				b.incidents = append(b.incidents, model.Incident{})
				ev.Incident = &b.incidents[len(b.incidents)-1]
			}
			ok = model.ParseIncident(p, ev.Incident)
		case "serverID":
			var s string
			s, ok = p.String()
			ev.ServerID = model.MachineID(s)
		case "metric":
			var v int
			v, ok = p.Int()
			ev.Metric = monitordb.Metric(v)
		case "time":
			if p.Null() {
				ev.Time = nil
				return true
			}
			var t time.Time
			if t, ok = p.Time(); ok {
				if ev.Time == nil {
					b.times = append(b.times, t)
					ev.Time = &b.times[len(b.times)-1]
				} else {
					*ev.Time = t
				}
			}
		case "value":
			ev.Value, ok = p.Float()
		case "host":
			var s string
			s, ok = p.String()
			ev.Host = model.MachineID(s)
		case "on":
			if p.Null() {
				ev.On = nil
				return true
			}
			var v bool
			if v, ok = p.Bool(); ok {
				if ev.On == nil {
					b.bools = append(b.bools, v)
					ev.On = &b.bools[len(b.bools)-1]
				} else {
					*ev.On = v
				}
			}
		case "ref":
			ev.Ref, ok = p.Bool()
		default:
			ok = p.UnknownKey(key, eventKeys)
		}
		return ok
	})
	return ok && p.End()
}
