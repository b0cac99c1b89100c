package stream

// Engine checkpoint persistence — the state image the durable subsystem
// writes at checkpoint time and the WAL replays on top of after a crash.
// The image is written field by field straight from the live engine in
// binimg values (8-byte little-endian integers and floats, length-prefixed
// strings and columns, times as a length byte plus time.Time's binary
// form), every map in key order, so one engine state has exactly one
// image. It is self-delimiting, so it can be embedded in larger streams:
//
//	magic "FSENG003"
//	header, checked before any state is read:
//	  window start, window end
//	  detector flag
//	  minCrashes, burstWindow, horizon          (iff detector)
//	events, watermark
//	machine count, then per machine in arrival order:
//	  id, kind, system, cpus, memoryGB, diskGB, disks, hostID, created
//	serverCount[2][6]
//	tickets, crashTickets, droppedOutOfWindow, outOfOrder
//	sysAll[6], sysCrash[6], sysKindCrash[2][6]
//	weekly[2][6], each a column of per-week counts
//	weeklyFailed[2][6], each a week count, then per week a server count
//	  and (id, flag) pairs sorted by id
//	classCounts: system count, then per system (sorted) the system, a
//	  class count and (class, n) pairs sorted by class
//	classTotals: count, then (system, n) sorted by system
//	lastCrash: count, then (id, time) sorted by id
//	crashCount: count, then (id, n) sorted by id
//	gaps[2], repairs[2]: sketch moments, then sketch quantile
//	kindCrashes[2], reboots[2], failing[2], singles[2]
//	rec[2][6]: failures, uncDay, uncWeek, uncMonth, hitDay, hitWeek, hitMonth
//	incidents, incidentOne, incidentTwoPlus, incidentServers,
//	  maxIncident, maxIncidentCls, pmBuckets[3], vmBuckets[3]
//	classSpatial: count, then (class, incidents, servers, max) sorted
//	monitorSamples
//	confusion: count, then (truth, predicted, n) sorted
//	scored, scoredHit
//	detector image FSDET002                      (iff detector)
//
// Every statistic-bearing field is captured exactly: the headline
// invariant is that an engine restored at sequence k and fed events[k:]
// produces snapshots, reports and alerts DeepEqual to an engine that
// applied the whole stream uninterrupted. Fields that are pure
// observation (Observer registry, classifier scratch counters) are not
// part of the image; they repopulate as the restored engine runs.

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"failscope/internal/binimg"
	"failscope/internal/model"
	"failscope/internal/sketch"
)

// engineStateMagic names the image format. Earlier versions wrote FSENG001
// (gob) and FSENG002 (this layout plus a monitoring-store segment); both
// are refused by name.
const engineStateMagic = "FSENG003"

// WriteState serializes the engine's complete statistical state, returning
// the sequence number (event count) the image captures. Safe to call
// concurrently with appliers; the image is a consistent cut between
// commit groups. The image is encoded under the engine lock straight into
// w, so ingest waits for it; the hold lands in the stream.state_lock_ms
// histogram.
func (e *Engine) WriteState(w io.Writer) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t0 := time.Now()

	bw := binimg.NewWriter(w)
	e.encodeStateLocked(bw)
	if d := e.cfg.Detector; d != nil {
		d.WriteState(bw)
	}
	err := bw.Flush()
	e.cfg.Observer.Metrics().Histogram(stateLockMetric, stateLockBucketsMS...).
		Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	if err != nil {
		return 0, fmt.Errorf("stream: write state: %w", err)
	}
	return e.events, nil
}

// stateLockBucketsMS are the WriteState lock-hold histogram bounds, in
// milliseconds.
var stateLockBucketsMS = []float64{0.5, 1, 2, 5, 10, 20, 50, 100}

func putInts(w *binimg.Writer, vals []int) {
	for _, v := range vals {
		w.Int(v)
	}
}

func getInts(r *binimg.Reader, into []int) {
	for i := range into {
		into[i] = r.Int()
	}
}

func compareConfusion(a, b [2]int) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// encodeHeader writes what an image is bound to: the engine's
// configuration, not its state.
func (e *Engine) encodeHeader(w *binimg.Writer) {
	w.Raw(engineStateMagic)
	w.Time(e.win.Start)
	w.Time(e.win.End)
	w.Bool(e.cfg.Detector != nil)
	if d := e.cfg.Detector; d != nil {
		d.Config().WriteParams(w)
	}
}

func (e *Engine) encodeStateLocked(w *binimg.Writer) {
	e.encodeHeader(w)
	w.I64(e.events)
	w.Time(e.watermark)

	w.Int(len(e.machineList))
	for _, m := range e.machineList {
		w.Str(string(m.ID))
		w.Int(int(m.Kind))
		w.Int(int(m.System))
		w.Int(m.Capacity.CPUs)
		w.F64(m.Capacity.MemoryGB)
		w.F64(m.Capacity.DiskGB)
		w.Int(m.Capacity.Disks)
		w.Str(string(m.HostID))
		w.Time(m.Created)
	}
	for k := range e.serverCount {
		putInts(w, e.serverCount[k][:])
	}
	w.I64(e.tickets)
	w.I64(e.crashTickets)
	w.I64(e.droppedOutOfWindow)
	w.I64(e.outOfOrder)
	putInts(w, e.sysAll[:])
	putInts(w, e.sysCrash[:])
	for k := range e.sysKindCrash {
		putInts(w, e.sysKindCrash[k][:])
	}
	for k := range e.weekly {
		for s := range e.weekly[k] {
			w.Ints(e.weekly[k][s])
		}
	}
	for k := range e.weeklyFailed {
		for s := range e.weeklyFailed[k] {
			w.Int(len(e.weeklyFailed[k][s]))
			for _, failed := range e.weeklyFailed[k][s] {
				e.imgKeys = binimg.SortedKeys(failed, e.imgKeys)
				w.Int(len(e.imgKeys))
				for _, id := range e.imgKeys {
					w.Str(string(id))
					w.Bool(failed[id])
				}
			}
		}
	}

	var systems [model.NumSystems + 2]model.System
	sys := binimg.SortedKeys(e.classCounts, systems[:0])
	w.Int(len(sys))
	for _, s := range sys {
		counts := e.classCounts[s]
		w.Int(int(s))
		var classes [16]model.FailureClass
		cls := binimg.SortedKeys(counts, classes[:0])
		w.Int(len(cls))
		for _, c := range cls {
			w.Int(int(c))
			w.Int(counts[c])
		}
	}
	sys = binimg.SortedKeys(e.classTotals, systems[:0])
	w.Int(len(sys))
	for _, s := range sys {
		w.Int(int(s))
		w.Int(e.classTotals[s])
	}

	e.imgKeys = binimg.SortedKeys(e.lastCrash, e.imgKeys)
	w.Int(len(e.imgKeys))
	for _, id := range e.imgKeys {
		w.Str(string(id))
		w.Time(e.lastCrash[id])
	}
	e.imgKeys = binimg.SortedKeys(e.crashCount, e.imgKeys)
	w.Int(len(e.imgKeys))
	for _, id := range e.imgKeys {
		w.Str(string(id))
		w.Int(e.crashCount[id])
	}

	for _, d := range [...]*distAcc{&e.gaps[0], &e.gaps[1], &e.repairs[0], &e.repairs[1]} {
		d.m.WriteImage(w)
		sketch.WriteQuantileImage(w, d.q)
	}
	putInts(w, e.kindCrashes[:])
	putInts(w, e.reboots[:])
	putInts(w, e.failing[:])
	putInts(w, e.singles[:])
	for k := range e.rec {
		for _, rc := range e.rec[k] {
			putInts(w, []int{rc.failures, rc.uncDay, rc.uncWeek, rc.uncMonth, rc.hitDay, rc.hitWeek, rc.hitMonth})
		}
	}
	putInts(w, []int{e.incidents, e.incidentOne, e.incidentTwoPlus, e.incidentServers, e.maxIncident, int(e.maxIncidentCls)})
	putInts(w, e.pmBuckets[:])
	putInts(w, e.vmBuckets[:])

	var classes [16]model.FailureClass
	cls := binimg.SortedKeys(e.classSpatial, classes[:0])
	w.Int(len(cls))
	for _, c := range cls {
		cs := e.classSpatial[c]
		putInts(w, []int{int(c), cs.incidents, cs.servers, cs.max})
	}
	w.I64(e.monitorSamples)

	var pairs [64][2]int
	keys := pairs[:0]
	for k := range e.confusion {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareConfusion)
	w.Int(len(keys))
	for _, k := range keys {
		putInts(w, []int{k[0], k[1], e.confusion[k]})
	}
	w.I64(e.scored)
	w.I64(e.scoredHit)
}

// RestoreState overwrites the engine's statistical state with a previously
// written image. The engine must be freshly configured with the same
// observation window and detection settings as the writer;
// mismatches are refused rather than silently diverging. The whole image
// is decoded before the engine (or its detector) changes, so a refused
// image leaves both as they were. The journal, if any, must be attached
// only after restore (and any WAL replay) completes.
func (e *Engine) RestoreState(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	br := binimg.NewReader(r)
	if err := e.checkHeader(br); err != nil {
		return err
	}
	st, err := e.decodeState(br)
	if err != nil {
		return err
	}
	if d := e.cfg.Detector; d != nil {
		if err := d.RestoreState(br); err != nil {
			return err
		}
	}
	e.engineState = st
	return nil
}

// checkHeader reads the image's header and refuses one this engine's
// configuration cannot continue.
func (e *Engine) checkHeader(r *binimg.Reader) error {
	switch magic := r.Raw(len(engineStateMagic)); {
	case r.Err() != nil:
		return fmt.Errorf("stream: read state magic: %w", r.Err())
	case magic != engineStateMagic && strings.HasPrefix(magic, "FSENG"):
		return fmt.Errorf("stream: state image is %q, written by an earlier version; this version reads %s only",
			magic, engineStateMagic)
	case magic != engineStateMagic:
		return fmt.Errorf("stream: bad state magic %q", magic)
	}
	start, end := r.Time(), r.Time()
	hasDetector := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stream: read state: %w", err)
	}
	if !sameTime(start, e.win.Start) || !sameTime(end, e.win.End) {
		return fmt.Errorf("stream: state window %v–%v, engine configured with %v–%v",
			start, end, e.win.Start, e.win.End)
	}
	if hasDetector != (e.cfg.Detector != nil) {
		return fmt.Errorf("stream: state detector=%v, engine detector=%v", hasDetector, e.cfg.Detector != nil)
	}
	if d := e.cfg.Detector; d != nil {
		d.Config().CheckParams(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	return nil
}

// sameTime reports whether a and b are one instant in one zone offset:
// the engine writes its own window, so any other encoding is refused.
func sameTime(a, b time.Time) bool {
	ab, aerr := a.MarshalBinary()
	bb, berr := b.MarshalBinary()
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// decodeState reads the engine's part of the image into a fresh state.
func (e *Engine) decodeState(r *binimg.Reader) (engineState, error) {
	weeks := e.win.NumWeeks()
	st := newEngineState(weeks)
	st.events = r.I64()
	st.watermark = r.Time()

	n := r.Count("machines")
	st.machineList = make([]*model.Machine, 0, binimg.Hint(n))
	for ; n > 0 && r.Err() == nil; n-- {
		m := &model.Machine{
			ID:     model.MachineID(r.Str()),
			Kind:   model.MachineKind(r.Int()),
			System: model.System(r.Int()),
			Capacity: model.Capacity{
				CPUs: r.Int(), MemoryGB: r.F64(), DiskGB: r.F64(), Disks: r.Int(),
			},
			HostID:  model.MachineID(r.Str()),
			Created: r.Time(),
		}
		if st.machines[m.ID] != nil {
			r.Failf("machine %s listed twice", m.ID)
		}
		st.machines[m.ID] = m
		st.machineList = append(st.machineList, m)
	}
	for k := range st.serverCount {
		getInts(r, st.serverCount[k][:])
	}
	st.tickets, st.crashTickets = r.I64(), r.I64()
	st.droppedOutOfWindow, st.outOfOrder = r.I64(), r.I64()
	getInts(r, st.sysAll[:])
	getInts(r, st.sysCrash[:])
	for k := range st.sysKindCrash {
		getInts(r, st.sysKindCrash[k][:])
	}
	for k := range st.weekly {
		for s := range st.weekly[k] {
			if st.weekly[k][s] = r.Ints("weekly"); len(st.weekly[k][s]) != weeks && r.Err() == nil {
				r.Failf("weekly counts span %d weeks, window has %d", len(st.weekly[k][s]), weeks)
			}
		}
	}
	for k := range st.weeklyFailed {
		for s := range st.weeklyFailed[k] {
			if n := r.Count("weeklyFailed"); n != weeks && r.Err() == nil {
				r.Failf("failing servers span %d weeks, window has %d", n, weeks)
			}
			for wi := 0; wi < weeks && r.Err() == nil; wi++ {
				next := binimg.Ascending[model.MachineID](r, "weeklyFailed")
				n := r.Count("weeklyFailed servers")
				if n == 0 {
					continue
				}
				failed := make(map[model.MachineID]bool, binimg.Hint(n))
				for ; n > 0 && r.Err() == nil; n-- {
					failed[next(model.MachineID(r.Str()))] = r.Bool()
				}
				st.weeklyFailed[k][s][wi] = failed
			}
		}
	}

	nextSys := binimg.Ascending[model.System](r, "classCounts")
	for n := r.Count("classCounts"); n > 0 && r.Err() == nil; n-- {
		s := nextSys(model.System(r.Int()))
		nextCls := binimg.Ascending[model.FailureClass](r, "classCounts classes")
		m := r.Count("classCounts classes")
		counts := make(map[model.FailureClass]int, binimg.Hint(m))
		for ; m > 0 && r.Err() == nil; m-- {
			c := nextCls(model.FailureClass(r.Int()))
			counts[c] = r.Int()
		}
		st.classCounts[s] = counts
	}
	nextSys = binimg.Ascending[model.System](r, "classTotals")
	for n := r.Count("classTotals"); n > 0 && r.Err() == nil; n-- {
		s := nextSys(model.System(r.Int()))
		st.classTotals[s] = r.Int()
	}
	nextID := binimg.Ascending[model.MachineID](r, "lastCrash")
	for n := r.Count("lastCrash"); n > 0 && r.Err() == nil; n-- {
		id := nextID(model.MachineID(r.Str()))
		st.lastCrash[id] = r.Time()
	}
	nextID = binimg.Ascending[model.MachineID](r, "crashCount")
	for n := r.Count("crashCount"); n > 0 && r.Err() == nil; n-- {
		id := nextID(model.MachineID(r.Str()))
		st.crashCount[id] = r.Int()
	}

	for _, d := range [...]*distAcc{&st.gaps[0], &st.gaps[1], &st.repairs[0], &st.repairs[1]} {
		d.m.ReadImage(r)
		d.q = sketch.ReadQuantileImage(r)
	}
	getInts(r, st.kindCrashes[:])
	getInts(r, st.reboots[:])
	getInts(r, st.failing[:])
	getInts(r, st.singles[:])
	for k := range st.rec {
		for s := range st.rec[k] {
			var v [7]int
			getInts(r, v[:])
			st.rec[k][s] = recCounters{
				failures: v[0],
				uncDay:   v[1], uncWeek: v[2], uncMonth: v[3],
				hitDay: v[4], hitWeek: v[5], hitMonth: v[6],
			}
		}
	}
	var inc [6]int
	getInts(r, inc[:])
	st.incidents, st.incidentOne, st.incidentTwoPlus = inc[0], inc[1], inc[2]
	st.incidentServers, st.maxIncident, st.maxIncidentCls = inc[3], inc[4], model.FailureClass(inc[5])
	getInts(r, st.pmBuckets[:])
	getInts(r, st.vmBuckets[:])

	nextCls := binimg.Ascending[model.FailureClass](r, "classSpatial")
	for n := r.Count("classSpatial"); n > 0 && r.Err() == nil; n-- {
		var v [4]int
		getInts(r, v[:])
		st.classSpatial[nextCls(model.FailureClass(v[0]))] = &classSpatialAcc{incidents: v[1], servers: v[2], max: v[3]}
	}
	st.monitorSamples = r.I64()

	var prev [2]int
	for i, n := 0, r.Count("confusion"); i < n && r.Err() == nil; i++ {
		var v [3]int
		getInts(r, v[:])
		k := [2]int{v[0], v[1]}
		if i > 0 && compareConfusion(prev, k) >= 0 {
			r.Failf("confusion keys out of order")
		}
		st.confusion[k], prev = v[2], k
	}
	st.scored, st.scoredHit = r.I64(), r.I64()

	if err := r.Err(); err != nil {
		return st, fmt.Errorf("stream: read state: %w", err)
	}
	return st, nil
}
