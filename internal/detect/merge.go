package detect

import (
	"sort"

	"failscope/internal/sketch"
)

// Merge assembles one Snapshot from N shard detectors as if a single
// detector had observed the whole stream. Counters sum exactly (the
// router's hash ownership keeps machines disjoint, so no alert is ever
// double-observed); machine-weeks come from the fleet-wide machine count,
// earliest first event and latest watermark through the same expression
// Snapshot uses; the lead-time summary rides on the mergeable sketches and
// is tolerance-equal, not byte-equal, to sequential accumulation. Two
// fields are deliberately weaker than a single detector's: alert IDs are
// per-shard sequences (unique within a shard only), and the recent ring is
// ordered by clear time with (RaisedAt, Machine) tie-breaks rather than by
// one engine's clear-processing order.
func Merge(ds []*Detector) *Snapshot {
	if len(ds) == 0 {
		return nil
	}
	if len(ds) == 1 {
		return ds[0].Snapshot()
	}
	for _, d := range ds {
		d.mu.Lock()
	}
	defer func() {
		for _, d := range ds {
			d.mu.Unlock()
		}
	}()

	s := &Snapshot{HorizonDays: ds[0].cfg.Horizon.Hours() / 24}
	var lead sketch.Moments
	leadQ := sketch.NewQuantile(sketch.DefaultK)
	var firstEvent = ds[0].firstEvent
	var active []*machineState
	var recent []Alert
	for _, d := range ds {
		s.Machines += len(d.machines)
		s.CrashTickets += d.crashTickets
		s.Raised += d.raisedBySource[SourceRecurrence] + d.raisedBySource[SourceAnomaly]
		s.RaisedAnomaly += d.raisedBySource[SourceAnomaly]
		s.Confirmed += d.confirmed
		s.Expired += d.expired
		s.ActiveCount += d.activeCount
		if d.watermark.After(s.Watermark) {
			s.Watermark = d.watermark
		}
		if firstEvent.IsZero() || (!d.firstEvent.IsZero() && d.firstEvent.Before(firstEvent)) {
			firstEvent = d.firstEvent
		}
		lead.Merge(d.leadDays)
		leadQ.Merge(d.leadQ)
		for _, st := range d.machines {
			if st.active != nil {
				active = append(active, st)
			}
		}
		recent = append(recent, d.recent...)
	}
	if !firstEvent.IsZero() && s.Watermark.After(firstEvent) {
		s.MachineWeeks = float64(s.Machines) * s.Watermark.Sub(firstEvent).Hours() / (24 * 7)
	}
	if lead.N() > 0 {
		s.LeadDaysMean = lead.Mean()
		var q [2]float64
		leadQ.Quantiles(leadRanks, q[:])
		s.LeadDaysP50, s.LeadDaysP95 = q[0], q[1]
	}
	sortStates(active)
	s.Active = make([]Alert, 0, len(active))
	for _, st := range active {
		s.Active = append(s.Active, *st.active)
	}
	// Newest first by clear time, with the raise ordering as tie-break;
	// capped at one ring's worth so the merged surface matches the
	// single-detector shape.
	sort.SliceStable(recent, func(i, j int) bool {
		if !recent[i].ClearedAt.Equal(recent[j].ClearedAt) {
			return recent[i].ClearedAt.After(recent[j].ClearedAt)
		}
		return alertBefore(&recent[j], &recent[i])
	})
	if len(recent) > ringSize {
		recent = recent[:ringSize]
	}
	s.Recent = recent
	return s
}
