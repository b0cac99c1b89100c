package stream

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"failscope/internal/dcsim"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/ticketdb"
)

// TestEventsFromFieldMatchesReference requires the key-array sort to give
// the small study's event stream exactly as the sort.SliceStable reference
// gives it, from the ticket store and from the dataset's own tickets.
func TestEventsFromFieldMatchesReference(t *testing.T) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []*ticketdb.Store{field.Tickets, nil} {
		got := EventsFromField(field.Data, store, field.Monitor)
		want := eventsFromFieldStable(field.Data, store, field.Monitor)
		requireSameEvents(t, got, want)
	}
}

// FuzzEventsFromField holds EventsFromField to the sort.SliceStable
// reference on fuzzed fields: tickets, incidents, samples, power events
// and placements on a coarse clock, so that equal instants, one-nanosecond
// gaps, pre-1970 times and one instant in two time zones are common.
func FuzzEventsFromField(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 7, 0, 0, 1, 7, 0, 0, 2, 7, 0, 0, 3, 7, 0, 0, 4, 7, 0, 0})
	f.Add([]byte{5, 200, 1, 9, 0, 3, 255, 1, 2, 3, 128, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		data, store, monitor := fuzzField(in)
		for _, st := range []*ticketdb.Store{store, nil} {
			requireSameEvents(t, EventsFromField(data, st, monitor), eventsFromFieldStable(data, st, monitor))
		}
		requireSameEvents(t, EventsFromField(nil, nil, nil), eventsFromFieldStable(nil, nil, nil))
	})
}

// fuzzField builds a field from in, four bytes a record: a kind, a clock
// step, a machine and a flag byte.
func fuzzField(in []byte) (*model.Dataset, *ticketdb.Store, *monitordb.DB) {
	epoch := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	monitor := monitordb.New(epoch, 2*365*24*time.Hour)
	data := &model.Dataset{}
	east := time.FixedZone("east", 2*3600)
	for ; len(in) >= 4; in = in[4:] {
		kind, step, m, flag := in[0]%5, in[1], in[2]%4, in[3]
		at := epoch.Add(time.Duration(step%32) * 15 * time.Minute).Add(time.Duration(flag%2) * time.Nanosecond)
		id := model.MachineID(fmt.Sprintf("S1-VM-%04d", m))
		switch kind {
		case 0:
			opened := at
			switch flag % 4 {
			case 2:
				opened = at.In(east)
			case 3:
				opened = time.Date(1969, 12, 31, 23, 59, 59, int(step), time.UTC)
			}
			n := len(data.Tickets)
			data.Tickets = append(data.Tickets, model.Ticket{
				ID: fmt.Sprintf("T%07d", n), ServerID: id, Opened: opened, Closed: opened.Add(time.Hour)})
		case 1:
			n := len(data.Incidents)
			data.Incidents = append(data.Incidents, model.Incident{
				ID: fmt.Sprintf("I%06d", n), Time: at, Servers: []model.MachineID{id}})
		case 2:
			monitor.AddSeries(id, monitordb.Metric(1+flag%3), []monitordb.Sample{{Time: at, Value: float64(flag)}})
		case 3:
			monitor.AddPowerEvent(id, monitordb.PowerEvent{Time: at, On: flag%2 == 0})
		case 4:
			monitor.SetPlacement(id, model.MachineID(fmt.Sprintf("S1-PM-%04d", flag%3)), at.AddDate(0, int(step%3), 0))
		}
		if len(data.Machines) <= int(m) {
			data.Machines = append(data.Machines, &model.Machine{ID: id, Kind: model.VM})
		}
	}
	store := ticketdb.NewStore()
	for _, tk := range data.Tickets {
		store.Append(tk)
	}
	return data, store, monitor
}

// requireSameEvents fails unless got and want hold equal events in the
// same order.
func requireSameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d events, reference %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d:\ngot:       %#v\nreference: %#v", i, got[i], want[i])
		}
	}
}
