package detect

// Checkpoint persistence for the online detector. The detector's alert
// decisions depend on exact per-machine state — crash-burst windows, EWMA
// levels, CUSUM accumulators, active alert deadlines — so recovery must
// restore every field bit-for-bit: a recovered detector continuing the
// stream has to raise, confirm and expire the same alerts at the same
// instants as one that never crashed (the crash-recovery equivalence
// tests replay both and DeepEqual the snapshots).
//
// The image is written field by field from the live detector in binimg
// values, every map in key order, so one detector state has exactly one
// image:
//
//	magic "FSDET002"
//	minCrashes, burstWindow, horizon   (raise-rule parameters, nanos)
//	machine count, then per machine, sorted by ID:
//	  id, kind, system, cpus, memoryGB, diskGB, disks, created, host,
//	  recent (count + times), crashes,
//	  4 × series (n, mean, dev, pos, neg),
//	  active (present flag + alert)
//	hostVMs count, then (id, count) sorted by id
//	firstEvent, watermark
//	nextID, activeCount, crashTickets
//	raisedBySource count, then (source, count) sorted by source
//	confirmed, expired
//	leadDays (sketch moments), leadQ (sketch quantile)
//	cleared ring: count + alerts, oldest first
//
// An alert is id, machine, kind, system, source, metric, raisedAt,
// deadline, crashes, risk, cause, outcome, clearedAt, leadDays.
//
// The publish watermarks (pubRaised/pubClear) are deliberately reset to
// zero on restore: the restarted process has a fresh metrics registry, and
// a zero watermark makes the next Publish re-add the full historical
// counts so the detect_* counters converge to an uninterrupted run's
// values.

import (
	"fmt"
	"time"

	"failscope/internal/binimg"
	"failscope/internal/model"
	"failscope/internal/sketch"
)

const detectorStateMagic = "FSDET002"

// WriteParams appends the raise-rule parameters an image is bound to.
func (c Config) WriteParams(w *binimg.Writer) {
	w.Int(c.MinCrashes)
	w.I64(int64(c.BurstWindow))
	w.I64(int64(c.Horizon))
}

// CheckParams reads parameters WriteParams wrote and fails r unless they
// are c's: restoring into a detector configured differently would silently
// change every pending deadline.
func (c Config) CheckParams(r *binimg.Reader) {
	minCrashes, burst, horizon := r.Int(), time.Duration(r.I64()), time.Duration(r.I64())
	if r.Err() == nil && (minCrashes != c.MinCrashes || burst != c.BurstWindow || horizon != c.Horizon) {
		r.Failf("detect: state written under minCrashes=%d burst=%s horizon=%s, detector configured with %d/%s/%s",
			minCrashes, burst, horizon, c.MinCrashes, c.BurstWindow, c.Horizon)
	}
}

// WriteState appends the detector's image to w; w latches any error.
// Every map is written in key order, so the same detector always produces
// the same bytes.
func (d *Detector) WriteState(w *binimg.Writer) {
	d.mu.Lock()
	defer d.mu.Unlock()

	w.Raw(detectorStateMagic)
	d.cfg.WriteParams(w)

	d.imgIDs = binimg.SortedKeys(d.machines, d.imgIDs)
	w.Int(len(d.imgIDs))
	for _, id := range d.imgIDs {
		st := d.machines[id]
		w.Str(string(id))
		w.Int(int(st.kind))
		w.Int(int(st.system))
		w.Int(st.cap.CPUs)
		w.F64(st.cap.MemoryGB)
		w.F64(st.cap.DiskGB)
		w.Int(st.cap.Disks)
		w.Time(st.created)
		w.Str(string(st.host))
		w.Int(len(st.recent))
		for _, t := range st.recent {
			w.Time(t)
		}
		w.Int(st.crashes)
		for _, s := range st.series {
			w.Int(s.n)
			w.F64(s.mean)
			w.F64(s.dev)
			w.F64(s.pos)
			w.F64(s.neg)
		}
		w.Bool(st.active != nil)
		if st.active != nil {
			encodeAlert(w, st.active)
		}
	}

	d.imgIDs = binimg.SortedKeys(d.hostVMs, d.imgIDs)
	w.Int(len(d.imgIDs))
	for _, id := range d.imgIDs {
		w.Str(string(id))
		w.Int(d.hostVMs[id])
	}

	w.Time(d.firstEvent)
	w.Time(d.watermark)
	w.I64(d.nextID)
	w.Int(d.activeCount)
	w.I64(d.crashTickets)

	sources := binimg.SortedKeys(d.raisedBySource, make([]string, 0, 2))
	w.Int(len(sources))
	for _, src := range sources {
		w.Str(src)
		w.I64(d.raisedBySource[src])
	}
	w.I64(d.confirmed)
	w.I64(d.expired)
	d.leadDays.WriteImage(w)
	sketch.WriteQuantileImage(w, d.leadQ)

	w.Int(len(d.recent))
	for i := range d.recent {
		encodeAlert(w, &d.recent[i])
	}
}

func encodeAlert(w *binimg.Writer, a *Alert) {
	w.I64(a.ID)
	w.Str(string(a.Machine))
	w.Int(int(a.Kind))
	w.Int(int(a.System))
	w.Str(a.Source)
	w.Str(a.Metric)
	w.Time(a.RaisedAt)
	w.Time(a.Deadline)
	w.Int(a.Crashes)
	w.F64(a.Risk)
	w.Int(int(a.Cause))
	w.Str(a.Outcome)
	w.Time(a.ClearedAt)
	w.F64(a.LeadDays)
}

func decodeAlert(r *binimg.Reader) Alert {
	return Alert{
		ID:        r.I64(),
		Machine:   model.MachineID(r.Str()),
		Kind:      model.MachineKind(r.Int()),
		System:    model.System(r.Int()),
		Source:    r.Str(),
		Metric:    r.Str(),
		RaisedAt:  r.Time(),
		Deadline:  r.Time(),
		Crashes:   r.Int(),
		Risk:      r.F64(),
		Cause:     model.FailureClass(r.Int()),
		Outcome:   r.Str(),
		ClearedAt: r.Time(),
		LeadDays:  r.F64(),
	}
}

// RestoreState overwrites the detector's tracking state with an image
// WriteState wrote. The receiver keeps its configuration and registry; the
// image's raise-rule parameters must match the configuration or the
// restore is refused. The whole image is decoded before the detector
// changes, so a refused image leaves it as it was.
func (d *Detector) RestoreState(r *binimg.Reader) error {
	if magic := r.Raw(len(detectorStateMagic)); r.Err() == nil && magic != detectorStateMagic {
		return fmt.Errorf("detect: bad state magic %q", magic)
	}
	d.cfg.CheckParams(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("detect: read state: %w", err)
	}

	n := New(d.cfg)
	next := binimg.Ascending[model.MachineID](r, "detector machines")
	for i := r.Count("detector machines"); i > 0 && r.Err() == nil; i-- {
		st := &machineState{id: next(model.MachineID(r.Str()))}
		st.kind = model.MachineKind(r.Int())
		st.system = model.System(r.Int())
		st.cap = model.Capacity{CPUs: r.Int(), MemoryGB: r.F64(), DiskGB: r.F64(), Disks: r.Int()}
		st.created = r.Time()
		st.host = model.MachineID(r.Str())
		if m := r.Count("recent crashes"); m > 0 {
			st.recent = make([]time.Time, 0, binimg.Hint(m))
			for ; m > 0 && r.Err() == nil; m-- {
				st.recent = append(st.recent, r.Time())
			}
		}
		st.crashes = r.Int()
		for j := range st.series {
			st.series[j] = seriesState{n: r.Int(), mean: r.F64(), dev: r.F64(), pos: r.F64(), neg: r.F64()}
		}
		if r.Bool() {
			a := decodeAlert(r)
			st.active = &a
		}
		n.machines[st.id] = st
	}
	next = binimg.Ascending[model.MachineID](r, "hostVMs")
	for i := r.Count("hostVMs"); i > 0 && r.Err() == nil; i-- {
		id := next(model.MachineID(r.Str()))
		n.hostVMs[id] = r.Int()
	}
	n.firstEvent = r.Time()
	n.watermark = r.Time()
	n.nextID = r.I64()
	n.activeCount = r.Int()
	n.crashTickets = r.I64()
	nextSrc := binimg.Ascending[string](r, "raisedBySource")
	for i := r.Count("raisedBySource"); i > 0 && r.Err() == nil; i-- {
		src := nextSrc(r.Str())
		n.raisedBySource[src] = r.I64()
	}
	n.confirmed = r.I64()
	n.expired = r.I64()
	n.leadDays.ReadImage(r)
	if n.leadQ = sketch.ReadQuantileImage(r); n.leadQ == nil {
		r.Failf("detect: state has no lead-time sketch") // a detector always has one
	}
	if m := r.Count("cleared alerts"); m > 0 {
		n.recent = make([]Alert, 0, binimg.Hint(m))
		for ; m > 0 && r.Err() == nil; m-- {
			n.recent = append(n.recent, decodeAlert(r))
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("detect: read state: %w", err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.machines, d.hostVMs = n.machines, n.hostVMs
	d.firstEvent, d.watermark = n.firstEvent, n.watermark
	d.nextID, d.activeCount, d.crashTickets = n.nextID, n.activeCount, n.crashTickets
	d.raisedBySource = n.raisedBySource
	d.confirmed, d.expired = n.confirmed, n.expired
	d.leadDays, d.leadQ = n.leadDays, n.leadQ
	d.pubRaised, d.pubClear = 0, 0
	d.recent = n.recent
	return nil
}
