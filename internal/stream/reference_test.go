package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/ticketdb"
)

// decodeJSONLOnly is Batch.DecodeJSONLInto with every line through
// json.Unmarshal: the reference TestDecodeJSONLIntoMatchesLegacy,
// FuzzDecodeJSONL and BenchmarkWireDecodeLegacy hold the pooled decoder
// to. Errors name the 1-based line number of the offending record; blank
// lines are skipped.
func decodeJSONLOnly(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		if ev.Type == "" {
			return nil, fmt.Errorf("stream: line %d: event without type", line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return events, nil
}

// eventsFromFieldStable is EventsFromField with the timed events ordered
// by sort.SliceStable on their timestamps and one allocation per payload:
// the reference TestEventsFromFieldMatchesReference and
// FuzzEventsFromField hold the key-array sort to.
func eventsFromFieldStable(data *model.Dataset, tickets *ticketdb.Store, monitor *monitordb.DB) []Event {
	var timed []Event
	if tickets != nil {
		for _, t := range tickets.All() {
			tk := t
			timed = append(timed, Event{Type: "ticket", Ticket: &tk})
		}
	} else if data != nil {
		for _, t := range data.Tickets {
			tk := t
			timed = append(timed, Event{Type: "ticket", Ticket: &tk})
		}
	}
	if data != nil {
		for _, inc := range data.Incidents {
			ic := inc
			timed = append(timed, Event{Type: "incident", Incident: &ic})
		}
	}
	if monitor != nil {
		monitor.ForEachSeries(func(id model.MachineID, metric monitordb.Metric, samples []monitordb.Sample) {
			for _, s := range samples {
				at := s.Time
				timed = append(timed, Event{Type: "sample", ServerID: id, Metric: metric, Time: &at, Value: s.Value})
			}
		})
		monitor.ForEachPower(func(id model.MachineID, events []monitordb.PowerEvent) {
			for _, ev := range events {
				at := ev.Time
				on := ev.On
				timed = append(timed, Event{Type: "power", ServerID: id, Time: &at, On: &on})
			}
		})
		monitor.ForEachPlacement(func(vm model.MachineID, steps []monitordb.PlacementStep) {
			for _, st := range steps {
				at := st.Time
				timed = append(timed, Event{Type: "placement", ServerID: vm, Host: st.Host, Time: &at})
			}
		})
	}
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].When().Before(timed[j].When()) })

	var out []Event
	if data != nil {
		for _, m := range data.Machines {
			out = append(out, Event{Type: "machine", Machine: m})
		}
	}
	return append(out, timed...)
}
