package monitordb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"failscope/internal/jsonl"
	"failscope/internal/model"
)

// The on-disk format is JSON Lines: a header record (epoch + retention)
// followed by one record per sample, power event and placement. It lets a
// generated monitoring database be persisted next to the ticket dataset
// and re-ingested later — or replaced by real telemetry exports.

type monitorRecord struct {
	Kind string `json:"kind"` // "header" | "sample" | "power" | "placement"

	// header
	Epoch     *time.Time `json:"epoch,omitempty"`
	Retention int64      `json:"retentionHours,omitempty"`

	// common
	Machine model.MachineID `json:"machine,omitempty"`
	Time    *time.Time      `json:"time,omitempty"`

	// sample
	Metric Metric  `json:"metric,omitempty"`
	Value  float64 `json:"value,omitempty"`

	// power
	On *bool `json:"on,omitempty"`

	// placement
	Host model.MachineID `json:"host,omitempty"`
}

// Encode writes the database as JSON Lines. Records are emitted in a
// deterministic order (machines sorted, then series time-sorted).
func (db *DB) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	db.mu.RLock()
	defer db.mu.RUnlock()

	epoch := db.epoch
	if err := enc.Encode(monitorRecord{
		Kind:      "header",
		Epoch:     &epoch,
		Retention: int64(db.retention / time.Hour),
	}); err != nil {
		return fmt.Errorf("monitordb: encode header: %w", err)
	}

	keys := make([]seriesKey, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		var encErr error
		db.series[k].each(func(t int64, v float64) {
			if encErr != nil {
				return
			}
			at := sampleTime(t)
			encErr = enc.Encode(monitorRecord{
				Kind: "sample", Machine: k.id, Metric: k.metric, Time: &at, Value: v,
			})
		})
		if encErr != nil {
			return fmt.Errorf("monitordb: encode sample: %w", encErr)
		}
	}

	ids := make([]model.MachineID, 0, len(db.power))
	for id := range db.power {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		events := append([]PowerEvent(nil), db.power[id]...)
		sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
		for _, ev := range events {
			at := ev.Time
			on := ev.On
			if err := enc.Encode(monitorRecord{Kind: "power", Machine: id, Time: &at, On: &on}); err != nil {
				return fmt.Errorf("monitordb: encode power event: %w", err)
			}
		}
	}

	vms := make([]model.MachineID, 0, len(db.placement))
	for id := range db.placement {
		vms = append(vms, id)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, id := range vms {
		recs := append([]placementRecord(nil), db.placement[id]...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].month.Before(recs[j].month) })
		for _, rec := range recs {
			at := rec.month
			if err := enc.Encode(monitorRecord{Kind: "placement", Machine: id, Time: &at, Host: rec.host}); err != nil {
				return fmt.Errorf("monitordb: encode placement: %w", err)
			}
		}
	}
	return bw.Flush()
}

// decodeFast / decodeFallback count, process-wide, how many dump lines
// Decode scanned itself versus handed to encoding/json. The parity tests
// use them to prove canonical Encode output never falls back.
var decodeFast, decodeFallback atomic.Int64

var recordKinds = []string{"header", "sample", "power", "placement"}

// recordKeys lists monitorRecord's JSON keys for the case-fold check.
var recordKeys = []string{"kind", "epoch", "retentionHours", "machine", "time", "metric", "value", "on", "host"}

// scanner holds the fast path's per-decode state: the parser, the storage
// a record's pointer fields point into (Decode copies the values out), and
// the last machine and host IDs, reused while consecutive lines repeat
// them — a dump lists each series' samples back to back.
type scanner struct {
	p         jsonl.Parser
	epoch, at time.Time
	on        bool
	machine   model.MachineID
	host      model.MachineID
}

// id decodes a machine-ID string, returning *last instead of a new string
// when the bytes repeat it.
func (s *scanner) id(last *model.MachineID) (model.MachineID, bool) {
	b, ok := s.p.StringBytes()
	if ok && string(b) != string(*last) {
		*last = model.MachineID(b)
	}
	return *last, ok
}

// parse scans one line into rec, or reports that it must fall back.
func (s *scanner) parse(line []byte, rec *monitorRecord) bool {
	p := &s.p
	p.Reset(line)
	ok := p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "kind":
			rec.Kind, ok = p.Enum(recordKinds)
		case "epoch":
			ok = s.timePtr(&rec.Epoch, &s.epoch)
		case "retentionHours":
			rec.Retention, ok = p.Int64()
		case "machine":
			rec.Machine, ok = s.id(&s.machine)
		case "time":
			ok = s.timePtr(&rec.Time, &s.at)
		case "metric":
			var v int
			v, ok = p.Int()
			rec.Metric = Metric(v)
		case "value":
			rec.Value, ok = p.Float()
		case "on":
			if p.Null() {
				rec.On = nil
				return true
			}
			s.on, ok = p.Bool()
			rec.On = &s.on
		case "host":
			rec.Host, ok = s.id(&s.host)
		default:
			ok = p.UnknownKey(key, recordKeys)
		}
		return ok
	})
	return ok && p.End()
}

// timePtr scans a *time.Time field: null clears it, a timestamp lands in
// storage.
func (s *scanner) timePtr(dst **time.Time, storage *time.Time) bool {
	if s.p.Null() {
		*dst = nil
		return true
	}
	t, ok := s.p.Time()
	*storage = t
	*dst = storage
	return ok
}

// Decode reads a database written with Encode. Lines the jsonl scanner
// cannot decode exactly as encoding/json would go to json.Unmarshal, and
// each run of consecutive samples of one series lands in one AddSeries
// call, so the result re-encodes byte-identically to decodeJSONOnly's.
func Decode(r io.Reader) (*DB, error) { return decode(r, true) }

// decodeJSONOnly is Decode without the fast path: every line through
// json.Unmarshal, every sample through Add. It is the reference the parity
// tests and the fuzz target hold Decode to.
func decodeJSONOnly(r io.Reader) (*DB, error) { return decode(r, false) }

func decode(r io.Reader, fast bool) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		db         *DB
		s          scanner
		rec        monitorRecord
		nFast, nFB int64
		line       int
		// run is the pending batch of consecutive samples of one series.
		run       []Sample
		runID     model.MachineID
		runMetric Metric
	)
	defer func() {
		decodeFast.Add(nFast)
		decodeFallback.Add(nFB)
	}()
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec = monitorRecord{}
		if fast && s.parse(raw, &rec) {
			nFast++
		} else {
			if fast {
				nFB++
				rec = monitorRecord{}
			}
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("monitordb: decode line %d: %w", line, err)
			}
		}
		if len(run) > 0 && (rec.Kind != "sample" || rec.Machine != runID || rec.Metric != runMetric) {
			db.AddSeries(runID, runMetric, run)
			run = run[:0]
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
			if !fast {
				db.Add(rec.Machine, rec.Metric, Sample{Time: *rec.Time, Value: rec.Value})
				continue
			}
			runID, runMetric = rec.Machine, rec.Metric
			run = append(run, Sample{Time: *rec.Time, Value: rec.Value})
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
	db.AddSeries(runID, runMetric, run)
	return db, nil
}
