package stream

import (
	"failscope/internal/model"
	"failscope/internal/sketch"
)

// MergeSnapshot assembles one Snapshot from N shard engines as if every
// event had been applied to a single engine. The Table II / Fig. 1 / Fig. 2
// / §IV.D / §IV.E statistics are count-based: the raw integer accumulators
// sum across shards (machines are disjoint by the router's hash ownership,
// so per-server state like weekly failed sets and recurrence counters never
// overlaps: the size of a week's fleet-wide failed set is the sum of the
// shards' sizes, and the merge sums those counts without touching the
// sets), and the merged derived floats are computed by the exact same
// assembly code Snapshot uses, so they are bit-identical to the
// single-engine values. The inter-failure and repair Summary blocks ride on
// sketch.Moments.Merge / sketch.Quantile.Merge, which are
// accumulation-order sensitive in the last ulp — equal within the
// convergence suite's 1e-9/5% tolerances, not byte-equal.
//
// Engines must share one Config.Observation window (the router guarantees
// it). Locks are taken in slice order; MergeSnapshot is the only path that
// holds more than one engine lock, so the order cannot deadlock.
func MergeSnapshot(engines []*Engine) *Snapshot {
	if len(engines) == 0 {
		return nil
	}
	if len(engines) == 1 {
		return engines[0].Snapshot()
	}
	for _, e := range engines {
		e.mu.Lock()
	}
	defer func() {
		for _, e := range engines {
			e.mu.Unlock()
		}
	}()

	weeks := len(engines[0].weekly[0][0])
	m := &Engine{win: engines[0].win, engineState: newEngineState(weeks)}

	owned := 0
	for _, e := range engines {
		if len(e.weekly[0][0]) != weeks {
			panic("stream: MergeSnapshot requires engines with identical observation windows")
		}
		if m.cfg.Classifier == nil {
			m.cfg.Classifier = e.cfg.Classifier
		}
		m.events += e.events
		m.tickets += e.tickets
		m.crashTickets += e.crashTickets
		m.droppedOutOfWindow += e.droppedOutOfWindow
		m.outOfOrder += e.outOfOrder
		m.monitorSamples += e.monitorSamples
		owned += e.ownedLocked()
		if e.watermark.After(m.watermark) {
			m.watermark = e.watermark
		}

		for k := 0; k < 2; k++ {
			for s := 0; s <= model.NumSystems; s++ {
				m.serverCount[k][s] += e.serverCount[k][s]
				m.sysKindCrash[k][s] += e.sysKindCrash[k][s]
				for wi, c := range e.weekly[k][s] {
					m.weekly[k][s][wi] += c
				}
				for wi, c := range e.weeklyFailedN[k][s] {
					m.weeklyFailedN[k][s][wi] += c
				}
				rc, src := &m.rec[k][s], e.rec[k][s]
				rc.failures += src.failures
				rc.uncDay += src.uncDay
				rc.uncWeek += src.uncWeek
				rc.uncMonth += src.uncMonth
				rc.hitDay += src.hitDay
				rc.hitWeek += src.hitWeek
				rc.hitMonth += src.hitMonth
			}
			m.gaps[k].merge(&e.gaps[k])
			m.repairs[k].merge(&e.repairs[k])
			m.kindCrashes[k] += e.kindCrashes[k]
			m.reboots[k] += e.reboots[k]
			m.failing[k] += e.failing[k]
			m.singles[k] += e.singles[k]
		}
		for s := 0; s <= model.NumSystems; s++ {
			m.sysAll[s] += e.sysAll[s]
			m.sysCrash[s] += e.sysCrash[s]
		}

		for sys, counts := range e.classCounts {
			dst := m.classCounts[sys]
			if dst == nil {
				dst = make(map[model.FailureClass]int, len(counts))
				m.classCounts[sys] = dst
			}
			for class, n := range counts {
				dst[class] += n
			}
		}
		for sys, n := range e.classTotals {
			m.classTotals[sys] += n
		}

		m.incidents += e.incidents
		m.incidentOne += e.incidentOne
		m.incidentTwoPlus += e.incidentTwoPlus
		m.incidentServers += e.incidentServers
		// Strict > keeps the earliest shard's class on size ties, matching
		// the single engine's first-encountered rule only up to incident
		// placement — the convergence tests carry the same tie caveat.
		if e.maxIncident > m.maxIncident {
			m.maxIncident = e.maxIncident
			m.maxIncidentCls = e.maxIncidentCls
		}
		for i := 0; i < 3; i++ {
			m.pmBuckets[i] += e.pmBuckets[i]
			m.vmBuckets[i] += e.vmBuckets[i]
		}
		for class, cs := range e.classSpatial {
			dst := m.classSpatial[class]
			if dst == nil {
				dst = &classSpatialAcc{}
				m.classSpatial[class] = dst
			}
			dst.incidents += cs.incidents
			dst.servers += cs.servers
			if cs.max > dst.max {
				dst.max = cs.max
			}
		}

		for key, n := range e.confusion {
			m.confusion[key] += n
		}
		m.scored += e.scored
		m.scoredHit += e.scoredHit
	}

	s := m.snapshotLocked()
	s.Machines = owned // the scratch engine has no inventory map
	return s
}

// merge folds another accumulator's distribution in: exact moments via
// Chan's pairwise update, order statistics via the sketch's level-wise
// merge. Deterministic for a fixed shard order.
func (d *distAcc) merge(o *distAcc) {
	d.m.Merge(o.m)
	if o.q != nil {
		if d.q == nil {
			d.q = sketch.NewQuantile(distAccK)
		}
		d.q.Merge(o.q)
	}
}
