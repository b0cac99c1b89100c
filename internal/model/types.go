// Package model defines the domain types shared by the simulator, the
// data-collection pipeline and the analysis library: machines, problem
// tickets, failure incidents and the assembled dataset.
//
// The vocabulary follows §III of the paper: a *machine* is a stand-alone
// physical machine (PM), a virtual machine (VM), or a virtualized hosting
// box; a *ticket* is one record in the ticketing system; a *crash ticket*
// reports a server being unresponsive/unreachable (a server failure); an
// *incident* is one failure event that may involve several servers at once.
package model

import (
	"fmt"
	"time"
)

// MachineID uniquely identifies a machine across all databases.
type MachineID string

// MachineKind distinguishes the three machine populations.
type MachineKind int

// Machine kinds. Boxes host VMs; the paper excludes them from the machine
// statistics (limited data access) but they drive spatial VM coupling.
const (
	PM MachineKind = iota + 1
	VM
	Box
)

func (k MachineKind) String() string {
	switch k {
	case PM:
		return "PM"
	case VM:
		return "VM"
	case Box:
		return "Box"
	default:
		return fmt.Sprintf("MachineKind(%d)", int(k))
	}
}

// System identifies one of the five commercial datacenter subsystems.
type System int

// The five subsystems of Table II.
const (
	SysI System = iota + 1
	SysII
	SysIII
	SysIV
	SysV
)

// NumSystems is the number of datacenter subsystems in the study.
const NumSystems = 5

// Systems lists all subsystems in order.
func Systems() []System { return []System{SysI, SysII, SysIII, SysIV, SysV} }

func (s System) String() string {
	names := [...]string{"Sys I", "Sys II", "Sys III", "Sys IV", "Sys V"}
	if s < SysI || s > SysV {
		return fmt.Sprintf("System(%d)", int(s))
	}
	return names[s-1]
}

// FailureClass is the resolution-based crash classification of §III.A.
type FailureClass int

// The six crash classes. ClassOther absorbs tickets whose description or
// resolution is too vague to classify (53% of the paper's dataset).
const (
	ClassHardware FailureClass = iota + 1
	ClassNetwork
	ClassSoftware
	ClassPower
	ClassReboot
	ClassOther
)

// Classes lists all failure classes in the paper's reporting order
// (HW, Net, Power, Reboot, SW, Other).
func Classes() []FailureClass {
	return []FailureClass{ClassHardware, ClassNetwork, ClassPower, ClassReboot, ClassSoftware, ClassOther}
}

// ClassifiedClasses lists the five named classes, excluding ClassOther,
// the subset shown in Fig. 1 and Tables III/IV/VII.
func ClassifiedClasses() []FailureClass {
	return []FailureClass{ClassHardware, ClassNetwork, ClassPower, ClassReboot, ClassSoftware}
}

func (c FailureClass) String() string {
	switch c {
	case ClassHardware:
		return "HW"
	case ClassNetwork:
		return "Net"
	case ClassSoftware:
		return "SW"
	case ClassPower:
		return "Power"
	case ClassReboot:
		return "Reboot"
	case ClassOther:
		return "Other"
	default:
		return fmt.Sprintf("FailureClass(%d)", int(c))
	}
}

// Capacity is a machine's resource configuration (§III.B). DiskGB and
// Disks are only populated for VMs, mirroring the paper's data gap for PM
// disk information.
type Capacity struct {
	CPUs     int     `json:"cpus"`
	MemoryGB float64 `json:"memoryGB"`
	DiskGB   float64 `json:"diskGB"`
	Disks    int     `json:"disks"`
}

// Machine is one server in the study.
type Machine struct {
	ID       MachineID   `json:"id"`
	Kind     MachineKind `json:"kind"`
	System   System      `json:"system"`
	Capacity Capacity    `json:"capacity"`

	// HostID is the hosting box for VMs; empty otherwise.
	HostID MachineID `json:"hostID,omitempty"`

	// Created is the machine's creation date — for VMs, the first
	// occurrence in the resource-monitoring database (§III.B "VM age").
	Created time.Time `json:"created"`
}

// Ticket is one record in the ticketing system. Class and IsCrash are the
// generator's ground truth; the ingest pipeline re-derives both from the
// Description/Resolution text and scores itself against the truth.
type Ticket struct {
	ID          string       `json:"id"`
	ServerID    MachineID    `json:"serverID"`
	IncidentID  string       `json:"incidentID,omitempty"`
	System      System       `json:"system"`
	Opened      time.Time    `json:"opened"`
	Closed      time.Time    `json:"closed"`
	Description string       `json:"description"`
	Resolution  string       `json:"resolution"`
	IsCrash     bool         `json:"isCrash"`
	Class       FailureClass `json:"class,omitempty"`
}

// RepairTime is the ticket's open-to-close duration, the paper's repair
// time including queueing (§IV.C).
func (t Ticket) RepairTime() time.Duration { return t.Closed.Sub(t.Opened) }

// Incident is one failure event; crash tickets referencing the same
// incident represent spatially dependent server failures (§IV.E).
type Incident struct {
	ID      string       `json:"id"`
	Class   FailureClass `json:"class"`
	Time    time.Time    `json:"time"`
	Servers []MachineID  `json:"servers"`
}

// Window is a half-open observation interval [Start, End).
type Window struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// Weeks returns the window length in (fractional) weeks.
func (w Window) Weeks() float64 { return w.Duration().Hours() / (24 * 7) }

// WeekIndex returns the zero-based week bucket of t within the window, or
// -1 if t is outside.
func (w Window) WeekIndex(t time.Time) int {
	if !w.Contains(t) {
		return -1
	}
	return int(t.Sub(w.Start) / (7 * 24 * time.Hour))
}

// NumWeeks returns the number of (possibly partial) week buckets.
func (w Window) NumWeeks() int {
	weeks := int(w.Duration() / (7 * 24 * time.Hour))
	if w.Start.Add(time.Duration(weeks) * 7 * 24 * time.Hour).Before(w.End) {
		weeks++
	}
	return weeks
}
