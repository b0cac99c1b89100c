package stream

import (
	"bufio"
	"bytes"
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
// pooled Batch whose arenas are recycled across requests. A sample line
// laid out exactly as AppendEvent writes it (nine in ten wire events) is
// matched against its fixed key text in one pass, and repeated timestamps
// and machine IDs reuse the previous line's value. The fast path only
// accepts input it can decode bit-for-bit the way encoding/json would;
// anything it is not certain about (non-UTC timezones, surrogate escapes,
// invalid UTF-8, malformed syntax) falls back to json.Unmarshal for that
// line, so observable behavior — values and error text alike — is
// unchanged. TestDecodeJSONLIntoMatchesLegacy and FuzzDecodeJSONL hold the
// two decoders equal.

// decodeFastLines / decodeFallbackLines count, process-wide, how many
// lines the scanner decoded itself versus delegated; each DecodeJSONLInto
// call adds its counts once. The equivalence tests use them to prove
// canonical encoder output never falls back.
var decodeFastLines, decodeFallbackLines atomic.Int64

// DecodeStats reports how many JSONL lines were decoded by the fast
// scanner and how many fell back to encoding/json since process start.
func DecodeStats() (fast, fallback int64) {
	return decodeFastLines.Load(), decodeFallbackLines.Load()
}

// Batch is a decoded event batch backed by pooled arenas: the Event slice
// plus the time/bool/machine/ticket/incident values its pointer fields
// reference, and the body the events were decoded from. A Batch
// obtained from GetBatch is owned by the caller until Release; the engine
// copies everything it keeps (see DESIGN.md §11), so releasing after
// Apply is safe.
type Batch struct {
	Events []Event

	times     []time.Time
	bools     []bool
	machines  []model.Machine
	tickets   []model.Ticket
	incidents []model.Incident

	parser jsonl.Parser // keeps its unescape scratch across batches
	body   bytes.Buffer // the whole body DecodeJSONLInto read

	// Decode memos: the last timestamp and the last serverID and host
	// strings, reused while consecutive lines repeat their bytes.
	lastTime   jsonl.TimeMemo
	lastServer model.MachineID
	lastHost   model.MachineID

	// wire is the JSONL body the events were decoded from: what one
	// successful DecodeJSONLInto call read into an empty batch, nil for any
	// other batch. Decoding it again yields the same events, which is what
	// lets a journal record it in place of a re-encode (ApplyBatchTimed).
	wire []byte
}

const batchReadBufSize = 1 << 20

// newBody returns an empty body buffer of the pooled size. Unlike
// bytes.Buffer.Grow, which zeroes what it adds, a fresh make leaves the
// pages untouched until a body lands in them.
func newBody() bytes.Buffer { return *bytes.NewBuffer(make([]byte, 0, batchReadBufSize)) }

var batchPool = mempool.New("stream.batch", 32,
	func() *Batch { return &Batch{body: newBody()} },
	func(b *Batch) *Batch { b.reset(); return b },
)

// GetBatch returns an empty batch from the pool.
func GetBatch() *Batch { return batchPool.Get() }

// Release recycles the batch. The caller must not touch the batch, its
// events, or anything its events point to afterwards.
func (b *Batch) Release() { batchPool.Put(b) }

// reset empties the batch for reuse, keeping arena capacity. The
// string-bearing arenas and memos are cleared so recycled batches do not
// pin the previous request's ticket text or IDs.
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
	b.wire = nil
	b.lastTime.Reset()
	b.lastServer, b.lastHost = "", ""
	if b.body.Cap() > batchReadBufSize {
		b.body = newBody() // pool no oversized body's buffer
	}
	b.parser.Reset(nil) // drop the view of the last request's read buffer
}

func clearSlice[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}

// maxLineBytes is the line length DecodeJSONLInto refuses with
// bufio.ErrTooLong: the bufio.Scanner limit a json.Unmarshal-per-line
// reader with a 16 MiB buffer applies.
const maxLineBytes = 1 << 24

// DecodeJSONLInto appends a JSONL event batch to b. Errors name the
// 1-based line number of the offending record — the daemon surfaces them
// verbatim in its 400 responses. Blank lines are skipped. Returns the
// number of events appended.
//
// The body is read whole into the batch's read buffer, then split into
// lines as bufio.ScanLines splits them; on an empty batch a successful
// decode keeps the body as the batch's wire bytes.
func (b *Batch) DecodeJSONLInto(r io.Reader) (int, error) {
	b.body.Reset()
	_, rerr := b.body.ReadFrom(r) // like bufio.Scanner, keeps what preceded an error
	body := b.body.Bytes()
	b.wire = nil
	start := len(b.Events)
	line := 0
	var fast, fallback int64
	defer func() {
		decodeFastLines.Add(fast)
		decodeFallbackLines.Add(fallback)
	}()
	for rest := body; len(rest) > 0; {
		raw := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			raw, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(raw) >= maxLineBytes {
			return len(b.Events) - start, fmt.Errorf("stream: read: %w", bufio.ErrTooLong)
		}
		raw = bytes.TrimSuffix(raw, []byte{'\r'})
		line++
		if len(raw) == 0 {
			continue
		}
		b.Events = append(b.Events, Event{})
		ev := &b.Events[len(b.Events)-1]
		if b.fastParseEvent(raw, ev) {
			fast++
		} else {
			fallback++
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
	if rerr != nil {
		return len(b.Events) - start, fmt.Errorf("stream: read: %w", rerr)
	}
	if start == 0 {
		b.wire = body
	}
	return len(b.Events) - start, nil
}

// eventKeys lists Event's JSON keys for the case-fold check.
var eventKeys = []string{"type", "machine", "ticket", "incident", "serverID", "metric", "time", "value", "on", "host", "ref"}

// eventTypes lists the seven event types, the most frequent first, so a
// decoded type shares these strings instead of allocating its own.
var eventTypes = []string{"sample", "placement", "power", "ticket", "machine", "incident", "advance"}

// fastParseEvent parses one line into ev, using the batch arenas for the
// pointer payloads. Returns false (leaving ev in an undefined state the
// caller must reset) when the line needs the encoding/json fallback.
func (b *Batch) fastParseEvent(line []byte, ev *Event) bool {
	return b.parseSample(line, ev) || b.parseEvent(line, ev)
}

// sampleHead is the fixed text AppendEvent opens a sample line with.
const sampleHead = `{"type":"sample","serverID":`

// parseSample decodes a sample line laid out exactly as AppendEvent
// writes it — type, serverID, metric, time, value, with metric and value
// omitted when zero — matching the key text as fixed bytes. It writes ev
// only on success; any other line, including one with whitespace, escaped
// or extra keys, or a value the parser refuses, is left to parseEvent.
func (b *Batch) parseSample(line []byte, ev *Event) bool {
	p := &b.parser
	p.Reset(line)
	if !p.Literal(sampleHead) {
		return false
	}
	id, ok := b.id(&b.lastServer)
	if !ok {
		return false
	}
	var metric int
	if p.Literal(`,"metric":`) {
		if metric, ok = p.Int(); !ok {
			return false
		}
	}
	if !p.Literal(`,"time":`) {
		return false
	}
	t, ok := b.lastTime.Time(p)
	if !ok {
		return false
	}
	var value float64
	if p.Literal(`,"value":`) {
		if value, ok = p.Float(); !ok {
			return false
		}
	}
	if !p.Literal("}") || !p.End() {
		return false
	}
	b.times = append(b.times, t)
	*ev = Event{Type: "sample", ServerID: id, Metric: monitordb.Metric(metric),
		Time: &b.times[len(b.times)-1], Value: value}
	return true
}

// id decodes a machine-ID string, returning *last instead of a new string
// when the bytes repeat it.
func (b *Batch) id(last *model.MachineID) (model.MachineID, bool) {
	raw, ok := b.parser.StringBytes()
	if ok && string(raw) != string(*last) {
		*last = model.MachineID(raw)
	}
	return *last, ok
}

// parseEvent is the generic scan: any key order, whitespace and duplicate
// keys, each value decoded the way encoding/json would.
func (b *Batch) parseEvent(line []byte, ev *Event) bool {
	p := &b.parser
	p.Reset(line)
	ok := p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "type":
			ev.Type, ok = p.Enum(eventTypes)
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
			ev.ServerID, ok = b.id(&b.lastServer)
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
			if t, ok = b.lastTime.Time(p); ok {
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
			ev.Host, ok = b.id(&b.lastHost)
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
