package model

import (
	"fmt"
	"sort"
)

// Dataset is the assembled field data: the machine inventory, the full
// ticket population, the incident log and the observation window. It is
// what the simulator produces and what the collection pipeline consumes.
type Dataset struct {
	Observation Window     `json:"observation"`
	Machines    []*Machine `json:"machines"`
	Tickets     []Ticket   `json:"tickets"`
	Incidents   []Incident `json:"incidents"`

	byID map[MachineID]*Machine
}

// Index (re)builds the machine-ID lookup. It must be called after the
// Machines slice is mutated; NewDataset and the decoders call it for you.
func (d *Dataset) Index() {
	d.byID = make(map[MachineID]*Machine, len(d.Machines))
	for _, m := range d.Machines {
		d.byID[m.ID] = m
	}
}

// NewDataset builds an indexed dataset.
func NewDataset(obs Window, machines []*Machine, tickets []Ticket, incidents []Incident) *Dataset {
	d := &Dataset{Observation: obs, Machines: machines, Tickets: tickets, Incidents: incidents}
	d.Index()
	return d
}

// Machine returns the machine with the given ID, or nil.
func (d *Dataset) Machine(id MachineID) *Machine {
	if d.byID == nil {
		d.Index()
	}
	return d.byID[id]
}

// CountMachines returns the number of machines of the given kind; system
// <= 0 means all systems.
func (d *Dataset) CountMachines(kind MachineKind, system System) int {
	n := 0
	for _, m := range d.Machines {
		if m.Kind == kind && (system <= 0 || m.System == system) {
			n++
		}
	}
	return n
}

// CrashTickets returns the tickets flagged as crashes, in time order.
func (d *Dataset) CrashTickets() []Ticket {
	var out []Ticket
	for _, t := range d.Tickets {
		if t.IsCrash {
			out = append(out, t)
		}
	}
	sortTickets(out)
	return out
}

func sortTickets(ts []Ticket) {
	sort.Slice(ts, func(i, j int) bool {
		if !ts[i].Opened.Equal(ts[j].Opened) {
			return ts[i].Opened.Before(ts[j].Opened)
		}
		return ts[i].ID < ts[j].ID
	})
}

// Validate checks internal consistency: tickets reference known machines
// and lie within the observation window, incidents reference known servers,
// and repair times are non-negative. The simulator's output must validate;
// the ingest pipeline tolerates (and reports) violations in foreign data.
func (d *Dataset) Validate() error {
	if d.byID == nil {
		d.Index()
	}
	if !d.Observation.Start.Before(d.Observation.End) {
		return fmt.Errorf("model: empty observation window")
	}
	seen := make(map[MachineID]bool, len(d.Machines))
	for _, m := range d.Machines {
		if m.ID == "" {
			return fmt.Errorf("model: machine with empty ID")
		}
		if seen[m.ID] {
			return fmt.Errorf("model: duplicate machine ID %q", m.ID)
		}
		seen[m.ID] = true
		if m.Kind == VM && m.HostID != "" {
			if h := d.byID[m.HostID]; h == nil || h.Kind != Box {
				return fmt.Errorf("model: VM %q references unknown or non-box host %q", m.ID, m.HostID)
			}
		}
	}
	for _, t := range d.Tickets {
		if d.byID[t.ServerID] == nil {
			return fmt.Errorf("model: ticket %q references unknown server %q", t.ID, t.ServerID)
		}
		if !d.Observation.Contains(t.Opened) {
			return fmt.Errorf("model: ticket %q opened outside observation window", t.ID)
		}
		if t.Closed.Before(t.Opened) {
			return fmt.Errorf("model: ticket %q closes before it opens", t.ID)
		}
	}
	for _, inc := range d.Incidents {
		if len(inc.Servers) == 0 {
			return fmt.Errorf("model: incident %q involves no servers", inc.ID)
		}
		for _, s := range inc.Servers {
			if d.byID[s] == nil {
				return fmt.Errorf("model: incident %q references unknown server %q", inc.ID, s)
			}
		}
	}
	return nil
}
