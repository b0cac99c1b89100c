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
	"failscope/internal/par"
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

// encodeFallbacks counts, process-wide, the records Encode handed to
// json.Marshal because a value was outside what the appenders certify.
// The parity tests use it to prove canonical databases never fall back.
var encodeFallbacks atomic.Int64

// Encode writes the database as JSON Lines: encoding/json's bytes for each
// record, appended without reflection. Records are emitted in a
// deterministic order (machines sorted, then series time-sorted).
func (db *DB) Encode(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte
	emit := func(what string, rec *monitorRecord) error {
		var err error
		if line, err = jsonl.AppendOr(line[:0], rec, appendRecordFast, &encodeFallbacks); err != nil {
			return fmt.Errorf("monitordb: encode %s: %w", what, err)
		}
		line = append(line, '\n')
		_, err = bw.Write(line)
		return err
	}

	epoch := db.epoch
	if err := emit("header", &monitorRecord{
		Kind:      "header",
		Epoch:     &epoch,
		Retention: int64(db.retention / time.Hour),
	}); err != nil {
		return err
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
	var at time.Time
	rec := monitorRecord{Kind: "sample", Time: &at}
	for _, k := range keys {
		var encErr error
		rec.Machine, rec.Metric = k.id, k.metric
		db.series[k].each(func(t int64, v float64) {
			if encErr == nil {
				at, rec.Value = sampleTime(t), v
				encErr = emit("sample", &rec)
			}
		})
		if encErr != nil {
			return encErr
		}
	}

	ids := make([]model.MachineID, 0, len(db.power))
	for id := range db.power {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var on bool
	rec = monitorRecord{Kind: "power", Time: &at, On: &on}
	for _, id := range ids {
		events := append([]PowerEvent(nil), db.power[id]...)
		sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
		rec.Machine = id
		for _, ev := range events {
			at, on = ev.Time, ev.On
			if err := emit("power event", &rec); err != nil {
				return err
			}
		}
	}

	vms := make([]model.MachineID, 0, len(db.placement))
	for id := range db.placement {
		vms = append(vms, id)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	rec = monitorRecord{Kind: "placement", Time: &at}
	for _, id := range vms {
		recs := append([]placementRecord(nil), db.placement[id]...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].month.Before(recs[j].month) })
		rec.Machine = id
		for _, pr := range recs {
			at, rec.Host = pr.month, pr.host
			if err := emit("placement", &rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendRecordFast writes monitorRecord's fields in declaration order with
// their omitempty rules, or reports false for the json.Marshal fallback.
func appendRecordFast(dst []byte, rec *monitorRecord) ([]byte, bool) {
	dst = append(dst, `{"kind":`...)
	dst = jsonl.AppendString(dst, rec.Kind)
	ok := true
	if rec.Epoch != nil {
		dst = append(dst, `,"epoch":`...)
		if dst, ok = jsonl.AppendTime(dst, *rec.Epoch); !ok {
			return dst, false
		}
	}
	if rec.Retention != 0 {
		dst = append(dst, `,"retentionHours":`...)
		dst = jsonl.AppendInt(dst, rec.Retention)
	}
	if rec.Machine != "" {
		dst = append(dst, `,"machine":`...)
		dst = jsonl.AppendString(dst, string(rec.Machine))
	}
	if rec.Time != nil {
		dst = append(dst, `,"time":`...)
		if dst, ok = jsonl.AppendTime(dst, *rec.Time); !ok {
			return dst, false
		}
	}
	if rec.Metric != 0 {
		dst = append(dst, `,"metric":`...)
		dst = jsonl.AppendInt(dst, int64(rec.Metric))
	}
	if rec.Value != 0 {
		dst = append(dst, `,"value":`...)
		if dst, ok = jsonl.AppendFloat(dst, rec.Value); !ok {
			return dst, false
		}
	}
	if rec.On != nil {
		dst = append(dst, `,"on":`...)
		dst = jsonl.AppendBool(dst, *rec.On)
	}
	if rec.Host != "" {
		dst = append(dst, `,"host":`...)
		dst = jsonl.AppendString(dst, string(rec.Host))
	}
	return append(dst, '}'), true
}

// decodeFast / decodeFallback count, process-wide, how many dump records
// Decode scanned itself versus handed to encoding/json. The parity tests
// use them to prove canonical Encode output never falls back.
var decodeFast, decodeFallback atomic.Int64

var recordKinds = []string{"header", "sample", "power", "placement"}

// recordKeys lists monitorRecord's JSON keys for the case-fold check.
var recordKeys = []string{"kind", "epoch", "retentionHours", "machine", "time", "metric", "value", "on", "host"}

// record is one decoded dump line: monitorRecord with its pointer fields
// held by value, so a block of records stays valid after the worker that
// parsed it moves on. The has* flags stand for monitorRecord's non-nil
// pointers.
type record struct {
	kind                     string
	machine, host            model.MachineID
	epoch, at                time.Time
	retention                int64
	metric                   Metric
	value                    float64
	hasEpoch, hasTime, hasOn bool
	on                       bool
	fallback                 bool // decoded by json.Unmarshal
}

// setFrom copies a json.Unmarshal result into rec.
func (rec *record) setFrom(mr *monitorRecord) {
	*rec = record{
		kind: mr.Kind, machine: mr.Machine, host: mr.Host,
		retention: mr.Retention, metric: mr.Metric, value: mr.Value,
		fallback: true,
	}
	if mr.Epoch != nil {
		rec.hasEpoch, rec.epoch = true, *mr.Epoch
	}
	if mr.Time != nil {
		rec.hasTime, rec.at = true, *mr.Time
	}
	if mr.On != nil {
		rec.hasOn, rec.on = true, *mr.On
	}
}

// scanner is one decode worker's fast-path state: the parser and the last
// machine and host IDs, reused while consecutive lines repeat them — a
// dump lists each series' samples back to back.
type scanner struct {
	p       jsonl.Parser
	machine model.MachineID
	host    model.MachineID
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
func (s *scanner) parse(line []byte, rec *record) bool {
	p := &s.p
	p.Reset(line)
	ok := p.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "kind":
			rec.kind, ok = p.Enum(recordKinds)
		case "epoch":
			ok = s.timeField(&rec.hasEpoch, &rec.epoch)
		case "retentionHours":
			rec.retention, ok = p.Int64()
		case "machine":
			rec.machine, ok = s.id(&s.machine)
		case "time":
			ok = s.timeField(&rec.hasTime, &rec.at)
		case "metric":
			var v int
			v, ok = p.Int()
			rec.metric = Metric(v)
		case "value":
			rec.value, ok = p.Float()
		case "on":
			if p.Null() {
				rec.hasOn = false
				return true
			}
			rec.on, ok = p.Bool()
			rec.hasOn = true
		case "host":
			rec.host, ok = s.id(&s.host)
		default:
			ok = p.UnknownKey(key, recordKeys)
		}
		return ok
	})
	return ok && p.End()
}

// timeField scans a *time.Time field: null clears it, a timestamp lands
// in dst.
func (s *scanner) timeField(has *bool, dst *time.Time) bool {
	if s.p.Null() {
		*has = false
		return true
	}
	t, ok := s.p.Time()
	*dst, *has = t, true
	return ok
}

// parseLine is the pipeline's per-line step: the scanner, else
// json.Unmarshal, so values and error text match encoding/json's.
func parseLine(s *scanner, line []byte, num int, rec *record) error {
	*rec = record{}
	if s.parse(line, rec) {
		return nil
	}
	var mr monitorRecord
	if err := json.Unmarshal(line, &mr); err != nil {
		return fmt.Errorf("monitordb: decode line %d: %w", num, err)
	}
	rec.setFrom(&mr)
	return nil
}

// Decode reads a database written with Encode, parsing on GOMAXPROCS
// workers. Each run of consecutive samples of one series lands in one
// AddSeries call, so the result re-encodes byte-identically to what
// decoding every line with json.Unmarshal and Add would build.
func Decode(r io.Reader) (*DB, error) {
	db, _, err := DecodeParallel(r, 0)
	return db, err
}

// DecodeParallel is Decode on par.Workers(parallelism) workers; the
// database is the same at every worker count. The stats count the records
// and the workers' parse time.
func DecodeParallel(r io.Reader, parallelism int) (*DB, par.Stats, error) {
	return decode(r, par.Workers(parallelism), jsonl.BlockLines)
}

// decode runs the jsonl block pipeline over r. The fold checks every
// record in file order, so the first error in the file is the one
// reported, with its line number.
func decode(r io.Reader, workers, blockLines int) (*DB, par.Stats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		db         *DB
		nFast, nFB int64
		// run is the pending batch of consecutive samples of one series.
		run       []Sample
		runID     model.MachineID
		runMetric Metric
	)
	defer func() {
		decodeFast.Add(nFast)
		decodeFallback.Add(nFB)
	}()
	st, err := jsonl.Decode(sc, workers, blockLines, parseLine, func(line int, rec *record) error {
		if rec.fallback {
			nFB++
		} else {
			nFast++
		}
		if len(run) > 0 && (rec.kind != "sample" || rec.machine != runID || rec.metric != runMetric) {
			db.AddSeries(runID, runMetric, run)
			run = run[:0]
		}
		switch rec.kind {
		case "header":
			if !rec.hasEpoch {
				return fmt.Errorf("monitordb: line %d: header without epoch", line)
			}
			if db != nil {
				return fmt.Errorf("monitordb: line %d: duplicate header record", line)
			}
			db = New(rec.epoch, time.Duration(rec.retention)*time.Hour)
		case "sample":
			if db == nil || !rec.hasTime {
				return fmt.Errorf("monitordb: line %d: sample before header or without time", line)
			}
			runID, runMetric = rec.machine, rec.metric
			run = append(run, Sample{Time: rec.at, Value: rec.value})
		case "power":
			if db == nil || !rec.hasTime || !rec.hasOn {
				return fmt.Errorf("monitordb: line %d: malformed power event", line)
			}
			db.AddPowerEvent(rec.machine, PowerEvent{Time: rec.at, On: rec.on})
		case "placement":
			if db == nil || !rec.hasTime || rec.host == "" {
				return fmt.Errorf("monitordb: line %d: malformed placement", line)
			}
			db.SetPlacement(rec.machine, rec.host, rec.at)
		default:
			return fmt.Errorf("monitordb: line %d: unknown record kind %q", line, rec.kind)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	if err := sc.Err(); err != nil {
		return nil, st, fmt.Errorf("monitordb: read: %w", err)
	}
	if db == nil {
		return nil, st, fmt.Errorf("monitordb: missing header record")
	}
	db.AddSeries(runID, runMetric, run)
	return db, st, nil
}
