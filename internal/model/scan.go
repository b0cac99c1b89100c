package model

import "failscope/internal/jsonl"

// Typed scanners for the domain records, built on the shared jsonl.Parser.
// The ticket dump (Decode) and the wire event decoder (internal/stream)
// both parse machines, tickets and incidents through these, so the
// encoding/json parity rules live in one place. Each returns false when
// the line must fall back to json.Unmarshal; dst is then in an undefined
// state the caller discards.

// machineKeys / ticketKeys / incidentKeys / capacityKeys / windowKeys list
// each struct's JSON keys for the case-insensitive-match check: a key that
// is not an exact match but case-folds to a known one would be assigned by
// encoding/json, so the scanner falls back.
var (
	machineKeys  = []string{"id", "kind", "system", "capacity", "hostID", "created"}
	ticketKeys   = []string{"id", "serverID", "incidentID", "system", "opened", "closed", "description", "resolution", "isCrash", "class"}
	incidentKeys = []string{"id", "class", "time", "servers"}
	capacityKeys = []string{"cpus", "memoryGB", "diskGB", "disks"}
	windowKeys   = []string{"start", "end"}
)

func parseCapacity(p *jsonl.Parser, c *Capacity) bool {
	if p.Null() {
		return true
	}
	return p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "cpus":
			c.CPUs, ok = p.Int()
		case "memoryGB":
			c.MemoryGB, ok = p.Float()
		case "diskGB":
			c.DiskGB, ok = p.Float()
		case "disks":
			c.Disks, ok = p.Int()
		default:
			ok = p.UnknownKey(key, capacityKeys)
		}
		return ok
	})
}

// ParseMachine scans a machine object into m, merging into its current
// contents as encoding/json does.
func ParseMachine(p *jsonl.Parser, m *Machine) bool {
	return p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "id":
			var s string
			s, ok = p.String()
			m.ID = MachineID(s)
		case "kind":
			var v int
			v, ok = p.Int()
			m.Kind = MachineKind(v)
		case "system":
			var v int
			v, ok = p.Int()
			m.System = System(v)
		case "capacity":
			ok = parseCapacity(p, &m.Capacity)
		case "hostID":
			var s string
			s, ok = p.String()
			m.HostID = MachineID(s)
		case "created":
			ok = p.TimeField(&m.Created)
		default:
			ok = p.UnknownKey(key, machineKeys)
		}
		return ok
	})
}

// ParseTicket scans a ticket object into t, merging into its current
// contents as encoding/json does.
func ParseTicket(p *jsonl.Parser, t *Ticket) bool {
	return p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "id":
			t.ID, ok = p.String()
		case "serverID":
			var s string
			s, ok = p.String()
			t.ServerID = MachineID(s)
		case "incidentID":
			t.IncidentID, ok = p.String()
		case "system":
			var v int
			v, ok = p.Int()
			t.System = System(v)
		case "opened":
			ok = p.TimeField(&t.Opened)
		case "closed":
			ok = p.TimeField(&t.Closed)
		case "description":
			t.Description, ok = p.String()
		case "resolution":
			t.Resolution, ok = p.String()
		case "isCrash":
			ok = p.Null() // json no-ops null on a bool
			if !ok {
				t.IsCrash, ok = p.Bool()
			}
		case "class":
			var v int
			v, ok = p.Int()
			t.Class = FailureClass(v)
		default:
			ok = p.UnknownKey(key, ticketKeys)
		}
		return ok
	})
}

// ParseIncident scans an incident object into inc, merging into its
// current contents as encoding/json does.
func ParseIncident(p *jsonl.Parser, inc *Incident) bool {
	return p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "id":
			inc.ID, ok = p.String()
		case "class":
			var v int
			v, ok = p.Int()
			inc.Class = FailureClass(v)
		case "time":
			ok = p.TimeField(&inc.Time)
		case "servers":
			ok = parseServers(p, &inc.Servers)
		default:
			ok = p.UnknownKey(key, incidentKeys)
		}
		return ok
	})
}

func parseServers(p *jsonl.Parser, dst *[]MachineID) bool {
	if p.Null() {
		*dst = nil
		return true
	}
	out := (*dst)[:0]
	if out == nil {
		// json replaces a nil slice with an empty non-nil one even for [].
		out = make([]MachineID, 0)
	}
	ok := p.Array(func() bool {
		s, ok := p.String()
		out = append(out, MachineID(s))
		return ok
	})
	*dst = out
	return ok
}

func parseWindow(p *jsonl.Parser, w *Window) bool {
	return p.Object(func(key []byte) bool {
		switch string(key) {
		case "start":
			return p.TimeField(&w.Start)
		case "end":
			return p.TimeField(&w.End)
		}
		return p.UnknownKey(key, windowKeys)
	})
}
