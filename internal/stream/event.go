// Package stream is the incremental counterpart of the batch pipeline: an
// engine that consumes ordered event batches — tickets, monitoring
// samples, placement changes, incidents — and keeps the paper's §IV
// statistics continuously up to date. Every snapshot is queryable at any
// point and converges to the batch core.Analyze numbers on the same data
// (asserted by the convergence tests): weekly failure rates and class
// mixes are maintained exactly, inter-failure and repair distributions
// through streaming moment accumulators and a mergeable quantile sketch,
// and recurrence/spatial probabilities through incremental counters that
// replicate the batch censoring rules.
package stream

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"failscope/internal/jsonl"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/ticketdb"
)

// Event is one element of the input stream. Type selects which payload
// fields are meaningful; the JSON form is one object per line (JSONL).
type Event struct {
	// Type is one of "machine", "ticket", "incident", "sample", "power",
	// "placement", "advance".
	Type string `json:"type"`

	// machine: a server joins the inventory (must precede its tickets for
	// kind/system attribution, exactly as a CMDB precedes the ticket queue).
	Machine *model.Machine `json:"machine,omitempty"`

	// ticket: one ticketing-system record.
	Ticket *model.Ticket `json:"ticket,omitempty"`

	// incident: one failure incident (possibly spanning servers).
	Incident *model.Incident `json:"incident,omitempty"`

	// sample / power / placement: monitoring-database records. Time also
	// drives "advance" (an explicit watermark heartbeat with no payload).
	ServerID model.MachineID  `json:"serverID,omitempty"`
	Metric   monitordb.Metric `json:"metric,omitempty"`
	Time     *time.Time       `json:"time,omitempty"`
	Value    float64          `json:"value,omitempty"`
	On       *bool            `json:"on,omitempty"`
	Host     model.MachineID  `json:"host,omitempty"`

	// Ref marks a replica of an event whose primary copy lives on another
	// shard: the receiving engine applies its side effects (machine refs
	// register for incident kind lookups, advance refs move the watermark,
	// placement refs feed the detector's fleet-wide consolidation count)
	// but counts nothing — not the event itself, not the machine, not the
	// detector's inventory — so summing per-shard counters over a sharded
	// fleet equals the single-engine numbers. The shard router sets it when
	// broadcasting machine, advance and placement events; it never crosses
	// the wire.
	Ref bool `json:"ref,omitempty"`
}

// When returns the event's timestamp: ticket open, incident time, sample /
// power / placement / advance time; zero for inventory events.
func (e Event) When() time.Time {
	switch {
	case e.Ticket != nil:
		return e.Ticket.Opened
	case e.Incident != nil:
		return e.Incident.Time
	case e.Time != nil:
		return *e.Time
	}
	return time.Time{}
}

// EncodeJSONL writes events one JSON object per line, byte-identical to a
// json.Encoder's output (see AppendEvent).
func EncodeJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte
	for i := range events {
		var err error
		if line, err = AppendEvent(line[:0], &events[i]); err != nil {
			return fmt.Errorf("stream: encode event %d: %w", i, err)
		}
		line = append(line, '\n')
		if _, err = bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendJSONL appends events to dst one JSON object per line, exactly the
// bytes EncodeJSONL writes. On error dst is returned as it was.
func AppendJSONL(dst []byte, events []Event) ([]byte, error) {
	n := len(dst)
	for i := range events {
		var err error
		if dst, err = AppendEvent(dst, &events[i]); err != nil {
			return dst[:n], fmt.Errorf("stream: encode event %d: %w", i, err)
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// encodeFallbacks counts, process-wide, the events AppendEvent handed to
// json.Marshal because a value was outside what the appenders certify.
// The parity tests use it to prove canonical streams never fall back.
var encodeFallbacks atomic.Int64

// AppendEvent appends ev's JSON object (no newline), byte-identical to
// json.Marshal(ev), without reflection. An event holding a value the
// appenders cannot certify — a NaN or infinite float, a time MarshalJSON
// refuses — is marshalled by encoding/json instead, so the bytes or the
// error text are json's own. On error dst is returned as it was.
func AppendEvent(dst []byte, ev *Event) ([]byte, error) {
	return jsonl.AppendOr(dst, ev, appendEventFast, &encodeFallbacks)
}

// appendEventFast writes Event's fields in declaration order with their
// omitempty rules, or reports false for the json.Marshal fallback.
func appendEventFast(dst []byte, ev *Event) ([]byte, bool) {
	dst = append(dst, `{"type":`...)
	dst = jsonl.AppendString(dst, ev.Type)
	ok := true
	if ev.Machine != nil {
		dst = append(dst, `,"machine":`...)
		if dst, ok = model.AppendMachine(dst, ev.Machine); !ok {
			return dst, false
		}
	}
	if ev.Ticket != nil {
		dst = append(dst, `,"ticket":`...)
		if dst, ok = model.AppendTicket(dst, ev.Ticket); !ok {
			return dst, false
		}
	}
	if ev.Incident != nil {
		dst = append(dst, `,"incident":`...)
		if dst, ok = model.AppendIncident(dst, ev.Incident); !ok {
			return dst, false
		}
	}
	if ev.ServerID != "" {
		dst = append(dst, `,"serverID":`...)
		dst = jsonl.AppendString(dst, string(ev.ServerID))
	}
	if ev.Metric != 0 {
		dst = append(dst, `,"metric":`...)
		dst = jsonl.AppendInt(dst, int64(ev.Metric))
	}
	if ev.Time != nil {
		dst = append(dst, `,"time":`...)
		if dst, ok = jsonl.AppendTime(dst, *ev.Time); !ok {
			return dst, false
		}
	}
	if ev.Value != 0 {
		dst = append(dst, `,"value":`...)
		if dst, ok = jsonl.AppendFloat(dst, ev.Value); !ok {
			return dst, false
		}
	}
	if ev.On != nil {
		dst = append(dst, `,"on":`...)
		dst = jsonl.AppendBool(dst, *ev.On)
	}
	if ev.Host != "" {
		dst = append(dst, `,"host":`...)
		dst = jsonl.AppendString(dst, string(ev.Host))
	}
	if ev.Ref {
		dst = append(dst, `,"ref":true`...)
	}
	return append(dst, '}'), true
}

// EventsFromField flattens a generated (or ingested) field dataset into
// the ordered event stream a live deployment would have produced: the
// machine inventory first (the CMDB predates the ticket queue), then every
// timed record — tickets, incidents, monitoring samples, power events,
// placements — sorted by timestamp with arrival order as the deterministic
// tie-break. This is what -replay feeds the daemon and what the
// convergence tests replay through the engine.
//
// The timed events are ordered through a key array of (seconds,
// nanoseconds, arrival index) rather than by swapping the 112-byte events,
// and their payloads live in one arena per kind rather than one
// allocation per event.
func EventsFromField(data *model.Dataset, tickets *ticketdb.Store, monitor *monitordb.DB) []Event {
	var tks []model.Ticket
	if tickets != nil {
		tks = tickets.All() // a fresh copy
	} else if data != nil {
		tks = append([]model.Ticket(nil), data.Tickets...)
	}
	var incs []model.Incident
	var machines []*model.Machine
	if data != nil {
		incs = append([]model.Incident(nil), data.Incidents...)
		machines = data.Machines
	}
	var nTimes, nPower int
	if monitor != nil {
		fp := monitor.Footprint() // grid slots bound the samples from above
		nTimes = fp.GridSamples + fp.RowSamples
		monitor.ForEachPower(func(_ model.MachineID, events []monitordb.PowerEvent) { nPower += len(events) })
		monitor.ForEachPlacement(func(_ model.MachineID, steps []monitordb.PlacementStep) { nTimes += len(steps) })
		nTimes += nPower
	}

	timed := make([]Event, 0, len(tks)+len(incs)+nTimes)
	for i := range tks {
		timed = append(timed, Event{Type: "ticket", Ticket: &tks[i]})
	}
	for i := range incs {
		timed = append(timed, Event{Type: "incident", Incident: &incs[i]})
	}
	if monitor != nil {
		times := make([]time.Time, 0, nTimes)
		at := func(t time.Time) *time.Time {
			times = append(times, t)
			return &times[len(times)-1]
		}
		bools := make([]bool, 0, nPower)
		monitor.ForEachSeries(func(id model.MachineID, metric monitordb.Metric, samples []monitordb.Sample) {
			for _, s := range samples {
				timed = append(timed, Event{Type: "sample", ServerID: id, Metric: metric, Time: at(s.Time), Value: s.Value})
			}
		})
		monitor.ForEachPower(func(id model.MachineID, events []monitordb.PowerEvent) {
			for _, ev := range events {
				bools = append(bools, ev.On)
				timed = append(timed, Event{Type: "power", ServerID: id, Time: at(ev.Time), On: &bools[len(bools)-1]})
			}
		})
		monitor.ForEachPlacement(func(vm model.MachineID, steps []monitordb.PlacementStep) {
			for _, st := range steps {
				timed = append(timed, Event{Type: "placement", ServerID: vm, Host: st.Host, Time: at(st.Time)})
			}
		})
	}

	keys := make([]eventKey, len(timed))
	for i := range timed {
		t := timed[i].When()
		keys[i] = eventKey{sec: t.Unix(), nsec: int32(t.Nanosecond()), i: int32(i)}
	}
	slices.SortFunc(keys, compareEventKeys)

	out := make([]Event, 0, len(machines)+len(timed))
	for _, m := range machines {
		out = append(out, Event{Type: "machine", Machine: m})
	}
	for _, k := range keys {
		out = append(out, timed[k.i])
	}
	return out
}

// eventKey is one timed event's place in the stream: its instant, then
// its arrival index, which makes every key distinct and so any sort of
// the keys stable with respect to arrival. 16 bytes: a stream of more
// than 2^31 events would not fit in memory as Events anyway.
type eventKey struct {
	sec  int64
	nsec int32
	i    int32
}

func compareEventKeys(a, b eventKey) int {
	if c := cmp.Compare(a.sec, b.sec); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}
