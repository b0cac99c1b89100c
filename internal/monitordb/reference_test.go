package monitordb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"failscope/internal/model"
)

// Add appends one usage sample. Samples outside the acceptance window are
// silently dropped, mirroring the real databases' truncation. It is the
// per-sample reference the parity tests hold AddSeries to.
func (db *DB) Add(id model.MachineID, metric Metric, s Sample) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.outsideWindowLocked(s.Time) {
		return
	}
	db.seriesLocked(seriesKey{id, metric}).add(s.Time.UnixNano(), s.Value)
	db.noteSeenLocked(id, s.Time)
	db.samples.Add(1)
}

// decodeJSONOnly is Decode without the fast path, on one goroutine: every
// line through json.Unmarshal, every sample through Add. It is the
// reference the parity tests, the fuzz target and
// BenchmarkMonitorDecodeLegacy hold Decode to.
func decodeJSONOnly(r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		db   *DB
		rec  monitorRecord
		line int
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec = monitorRecord{}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("monitordb: decode line %d: %w", line, err)
		}
		switch rec.Kind {
		case "header":
			if rec.Epoch == nil {
				return nil, fmt.Errorf("monitordb: line %d: header without epoch", line)
			}
			if db != nil {
				return nil, fmt.Errorf("monitordb: line %d: duplicate header record", line)
			}
			db = New(*rec.Epoch, time.Duration(rec.Retention)*time.Hour)
		case "sample":
			if db == nil || rec.Time == nil {
				return nil, fmt.Errorf("monitordb: line %d: sample before header or without time", line)
			}
			db.Add(rec.Machine, rec.Metric, Sample{Time: *rec.Time, Value: rec.Value})
		case "power":
			if db == nil || rec.Time == nil || rec.On == nil {
				return nil, fmt.Errorf("monitordb: line %d: malformed power event", line)
			}
			db.AddPowerEvent(rec.Machine, PowerEvent{Time: *rec.Time, On: *rec.On})
		case "placement":
			if db == nil || rec.Time == nil || rec.Host == "" {
				return nil, fmt.Errorf("monitordb: line %d: malformed placement", line)
			}
			db.SetPlacement(rec.Machine, rec.Host, *rec.Time)
		default:
			return nil, fmt.Errorf("monitordb: line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("monitordb: read: %w", err)
	}
	if db == nil {
		return nil, fmt.Errorf("monitordb: missing header record")
	}
	return db, nil
}
