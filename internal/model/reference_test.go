package model

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// decodeJSONOnly is Decode with every line through json.Unmarshal, on one
// goroutine: the reference the parity tests, the fuzz target and
// BenchmarkDatasetDecodeLegacy hold Decode to.
func decodeJSONOnly(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		rec       jsonlRecord
		line      int
		sawHeader bool
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec = jsonlRecord{}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("model: decode line %d: %w", line, err)
		}
		switch rec.Kind {
		case "header":
			if rec.Header == nil {
				return nil, fmt.Errorf("model: line %d: header record without window", line)
			}
			if sawHeader {
				return nil, fmt.Errorf("model: line %d: duplicate header record", line)
			}
			d.Observation = *rec.Header
			sawHeader = true
		case "machine":
			if rec.Machine == nil {
				return nil, fmt.Errorf("model: line %d: machine record without body", line)
			}
			d.Machines = append(d.Machines, rec.Machine)
		case "ticket":
			if rec.Ticket == nil {
				return nil, fmt.Errorf("model: line %d: ticket record without body", line)
			}
			d.Tickets = append(d.Tickets, *rec.Ticket)
		case "incident":
			if rec.Incident == nil {
				return nil, fmt.Errorf("model: line %d: incident record without body", line)
			}
			d.Incidents = append(d.Incidents, *rec.Incident)
		default:
			return nil, fmt.Errorf("model: line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("model: read dataset: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("model: dataset missing header record")
	}
	d.Index()
	return d, nil
}
