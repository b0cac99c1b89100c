package model

import (
	"bytes"
	"testing"
	"time"
)

var (
	t0  = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	t1  = time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)
	obs = Window{Start: t0, End: t1}
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	machines := []*Machine{
		{ID: "pm-1", Kind: PM, System: SysI, Capacity: Capacity{CPUs: 4, MemoryGB: 16}, Created: t0.AddDate(-2, 0, 0)},
		{ID: "box-1", Kind: Box, System: SysI, Created: t0.AddDate(-1, 0, 0)},
		{ID: "vm-1", Kind: VM, System: SysI, HostID: "box-1", Created: t0.AddDate(0, -6, 0)},
		{ID: "vm-2", Kind: VM, System: SysII, HostID: "box-1", Created: t0.AddDate(0, 1, 0)},
	}
	tickets := []Ticket{
		{ID: "T1", ServerID: "pm-1", System: SysI, Opened: t0.Add(24 * time.Hour), Closed: t0.Add(30 * time.Hour), IsCrash: true, Class: ClassHardware},
		{ID: "T2", ServerID: "vm-1", System: SysI, Opened: t0.Add(48 * time.Hour), Closed: t0.Add(50 * time.Hour), IsCrash: true, Class: ClassReboot, IncidentID: "I1"},
		{ID: "T3", ServerID: "vm-1", System: SysI, Opened: t0.Add(12 * time.Hour), Closed: t0.Add(13 * time.Hour), IsCrash: false},
	}
	incidents := []Incident{
		{ID: "I1", Class: ClassReboot, Time: t0.Add(48 * time.Hour), Servers: []MachineID{"vm-1"}},
	}
	return NewDataset(obs, machines, tickets, incidents)
}

func TestValidateOK(t *testing.T) {
	if err := testDataset(t).Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"empty window", func(d *Dataset) { d.Observation = Window{Start: t1, End: t0} }},
		{"duplicate machine", func(d *Dataset) { d.Machines = append(d.Machines, &Machine{ID: "pm-1", Kind: PM}) }},
		{"empty machine id", func(d *Dataset) { d.Machines = append(d.Machines, &Machine{Kind: PM}) }},
		{"unknown host", func(d *Dataset) {
			d.Machines = append(d.Machines, &Machine{ID: "vm-x", Kind: VM, HostID: "nope"})
			d.Index()
		}},
		{"non-box host", func(d *Dataset) {
			d.Machines = append(d.Machines, &Machine{ID: "vm-x", Kind: VM, HostID: "pm-1"})
			d.Index()
		}},
		{"ticket unknown server", func(d *Dataset) {
			d.Tickets = append(d.Tickets, Ticket{ID: "TX", ServerID: "nope", Opened: t0.Add(time.Hour), Closed: t0.Add(2 * time.Hour)})
		}},
		{"ticket outside window", func(d *Dataset) {
			d.Tickets = append(d.Tickets, Ticket{ID: "TX", ServerID: "pm-1", Opened: t1.Add(time.Hour), Closed: t1.Add(2 * time.Hour)})
		}},
		{"ticket closes before open", func(d *Dataset) {
			d.Tickets = append(d.Tickets, Ticket{ID: "TX", ServerID: "pm-1", Opened: t0.Add(2 * time.Hour), Closed: t0.Add(time.Hour)})
		}},
		{"incident no servers", func(d *Dataset) {
			d.Incidents = append(d.Incidents, Incident{ID: "IX"})
		}},
		{"incident unknown server", func(d *Dataset) {
			d.Incidents = append(d.Incidents, Incident{ID: "IX", Servers: []MachineID{"nope"}})
		}},
	}
	for _, c := range cases {
		d := testDataset(t)
		c.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid dataset", c.name)
		}
	}
}

func TestDatasetQueries(t *testing.T) {
	d := testDataset(t)
	if d.Machine("vm-1") == nil || d.Machine("nope") != nil {
		t.Error("Machine lookup broken")
	}
	if n := d.CountMachines(VM, 0); n != 2 {
		t.Errorf("CountMachines(VM, all) = %d", n)
	}
	if n := d.CountMachines(VM, SysI); n != 1 {
		t.Errorf("CountMachines(VM, SysI) = %d", n)
	}
	if got := len(d.MachinesOf(PM, 0)); got != 1 {
		t.Errorf("MachinesOf(PM) = %d", got)
	}
	crashes := d.CrashTickets()
	if len(crashes) != 2 {
		t.Fatalf("CrashTickets = %d", len(crashes))
	}
	if !crashes[0].Opened.Before(crashes[1].Opened) {
		t.Error("crash tickets not time-sorted")
	}
	vm1 := d.TicketsFor("vm-1")
	if len(vm1) != 2 || !vm1[0].Opened.Before(vm1[1].Opened) {
		t.Errorf("TicketsFor(vm-1): %v", vm1)
	}
}

func TestRepairTime(t *testing.T) {
	tk := Ticket{Opened: t0, Closed: t0.Add(90 * time.Minute)}
	if got := tk.RepairTime(); got != 90*time.Minute {
		t.Errorf("RepairTime = %v", got)
	}
}

func TestWindowHelpers(t *testing.T) {
	w := Window{Start: t0, End: t0.AddDate(0, 0, 21)}
	if !w.Contains(t0) || w.Contains(w.End) || w.Contains(t0.Add(-time.Second)) {
		t.Error("Contains is wrong at boundaries")
	}
	if got := w.Weeks(); got != 3 {
		t.Errorf("Weeks = %v", got)
	}
	if got := w.Days(); got != 21 {
		t.Errorf("Days = %v", got)
	}
	if got := w.NumWeeks(); got != 3 {
		t.Errorf("NumWeeks = %d", got)
	}
	if idx := w.WeekIndex(t0.AddDate(0, 0, 8)); idx != 1 {
		t.Errorf("WeekIndex(day 8) = %d", idx)
	}
	if idx := w.WeekIndex(w.End); idx != -1 {
		t.Errorf("WeekIndex(end) = %d", idx)
	}
}

func TestNumWeeksPartial(t *testing.T) {
	w := Window{Start: t0, End: t0.AddDate(0, 0, 10)}
	if got := w.NumWeeks(); got != 2 {
		t.Errorf("NumWeeks of 10 days = %d, want 2", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Observation.Start.Equal(d.Observation.Start) || !got.Observation.End.Equal(d.Observation.End) {
		t.Error("observation window not preserved")
	}
	if len(got.Machines) != len(d.Machines) || len(got.Tickets) != len(d.Tickets) || len(got.Incidents) != len(d.Incidents) {
		t.Fatalf("counts differ: %d/%d/%d", len(got.Machines), len(got.Tickets), len(got.Incidents))
	}
	if got.Machine("vm-1") == nil || got.Machine("vm-1").HostID != "box-1" {
		t.Error("machine content lost")
	}
	if got.Tickets[0].ID == "" {
		t.Error("ticket content lost")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("decoded dataset invalid: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",                         // missing header
		"{\"kind\":\"bogus\"}\n",   // unknown kind
		"not json\n",               // malformed
		"{\"kind\":\"machine\"}\n", // machine without body
		"{\"kind\":\"header\"}\n{\"kind\":\"ticket\"}\n",                             // ticket without body
		"{\"kind\":\"header\",\"header\":{}}\n{\"kind\":\"header\",\"header\":{}}\n", // duplicate header
	}
	for _, in := range cases {
		if _, err := Decode(bytes.NewBufferString(in)); err == nil {
			t.Errorf("Decode(%q) accepted", in)
		}
	}
}

func TestStringers(t *testing.T) {
	if PM.String() != "PM" || VM.String() != "VM" || Box.String() != "Box" {
		t.Error("MachineKind strings wrong")
	}
	if MachineKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	if SysI.String() != "Sys I" || SysV.String() != "Sys V" {
		t.Error("System strings wrong")
	}
	if System(9).String() == "" {
		t.Error("unknown system should still render")
	}
	want := map[FailureClass]string{
		ClassHardware: "HW", ClassNetwork: "Net", ClassSoftware: "SW",
		ClassPower: "Power", ClassReboot: "Reboot", ClassOther: "Other",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if FailureClass(99).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestClassesLists(t *testing.T) {
	if len(Classes()) != 6 {
		t.Errorf("Classes() = %d entries", len(Classes()))
	}
	if len(ClassifiedClasses()) != 5 {
		t.Errorf("ClassifiedClasses() = %d entries", len(ClassifiedClasses()))
	}
	for _, c := range ClassifiedClasses() {
		if c == ClassOther {
			t.Error("ClassifiedClasses contains Other")
		}
	}
	if len(Systems()) != NumSystems {
		t.Errorf("Systems() = %d", len(Systems()))
	}
}

func TestAgeAt(t *testing.T) {
	m := &Machine{Created: t0}
	if got := m.AgeAt(t0.Add(48 * time.Hour)); got != 48*time.Hour {
		t.Errorf("AgeAt = %v", got)
	}
	if got := m.AgeAt(t0.Add(-time.Hour)); got >= 0 {
		t.Errorf("AgeAt before creation = %v, want negative", got)
	}
}

func TestWindowMonths(t *testing.T) {
	w := Window{Start: t0, End: t0.AddDate(0, 0, 90)}
	if got := w.Months(); got != 3 {
		t.Errorf("Months = %v, want 3 (30-day months)", got)
	}
}
