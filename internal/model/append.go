package model

import "failscope/internal/jsonl"

// Typed appenders for the domain records, built on the jsonl writers: the
// encode-side twins of scan.go. Each appends exactly what json.Marshal
// writes for the value — fields in declaration order, omitempty honoured —
// and reports false when a field holds a value it cannot certify (a NaN or
// infinite float, a time MarshalJSON refuses). dst is then in an undefined
// state; the caller truncates it and marshals the whole record with
// encoding/json instead, which yields the same bytes or the exact error.

// AppendMachine appends m as encoding/json encodes a Machine.
func AppendMachine(dst []byte, m *Machine) ([]byte, bool) {
	dst = append(dst, `{"id":`...)
	dst = jsonl.AppendString(dst, string(m.ID))
	dst = append(dst, `,"kind":`...)
	dst = jsonl.AppendInt(dst, int64(m.Kind))
	dst = append(dst, `,"system":`...)
	dst = jsonl.AppendInt(dst, int64(m.System))
	dst = append(dst, `,"capacity":{"cpus":`...)
	dst = jsonl.AppendInt(dst, int64(m.Capacity.CPUs))
	dst = append(dst, `,"memoryGB":`...)
	dst, ok := jsonl.AppendFloat(dst, m.Capacity.MemoryGB)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"diskGB":`...)
	if dst, ok = jsonl.AppendFloat(dst, m.Capacity.DiskGB); !ok {
		return dst, false
	}
	dst = append(dst, `,"disks":`...)
	dst = jsonl.AppendInt(dst, int64(m.Capacity.Disks))
	dst = append(dst, '}')
	if m.HostID != "" {
		dst = append(dst, `,"hostID":`...)
		dst = jsonl.AppendString(dst, string(m.HostID))
	}
	dst = append(dst, `,"created":`...)
	if dst, ok = jsonl.AppendTime(dst, m.Created); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

// AppendTicket appends t as encoding/json encodes a Ticket.
func AppendTicket(dst []byte, t *Ticket) ([]byte, bool) {
	dst = append(dst, `{"id":`...)
	dst = jsonl.AppendString(dst, t.ID)
	dst = append(dst, `,"serverID":`...)
	dst = jsonl.AppendString(dst, string(t.ServerID))
	if t.IncidentID != "" {
		dst = append(dst, `,"incidentID":`...)
		dst = jsonl.AppendString(dst, t.IncidentID)
	}
	dst = append(dst, `,"system":`...)
	dst = jsonl.AppendInt(dst, int64(t.System))
	dst = append(dst, `,"opened":`...)
	dst, ok := jsonl.AppendTime(dst, t.Opened)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"closed":`...)
	if dst, ok = jsonl.AppendTime(dst, t.Closed); !ok {
		return dst, false
	}
	dst = append(dst, `,"description":`...)
	dst = jsonl.AppendString(dst, t.Description)
	dst = append(dst, `,"resolution":`...)
	dst = jsonl.AppendString(dst, t.Resolution)
	dst = append(dst, `,"isCrash":`...)
	dst = jsonl.AppendBool(dst, t.IsCrash)
	if t.Class != 0 {
		dst = append(dst, `,"class":`...)
		dst = jsonl.AppendInt(dst, int64(t.Class))
	}
	return append(dst, '}'), true
}

// AppendIncident appends inc as encoding/json encodes an Incident: a nil
// Servers slice is null, an empty one [].
func AppendIncident(dst []byte, inc *Incident) ([]byte, bool) {
	dst = append(dst, `{"id":`...)
	dst = jsonl.AppendString(dst, inc.ID)
	dst = append(dst, `,"class":`...)
	dst = jsonl.AppendInt(dst, int64(inc.Class))
	dst = append(dst, `,"time":`...)
	dst, ok := jsonl.AppendTime(dst, inc.Time)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"servers":`...)
	if inc.Servers == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, s := range inc.Servers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonl.AppendString(dst, string(s))
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

// AppendWindow appends w as encoding/json encodes a Window.
func AppendWindow(dst []byte, w *Window) ([]byte, bool) {
	dst = append(dst, `{"start":`...)
	dst, ok := jsonl.AppendTime(dst, w.Start)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"end":`...)
	if dst, ok = jsonl.AppendTime(dst, w.End); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}
