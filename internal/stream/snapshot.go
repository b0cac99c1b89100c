package stream

import (
	"sort"
	"time"

	"failscope/internal/core"
	"failscope/internal/fidelity"
	"failscope/internal/ingest"
	"failscope/internal/model"
	"failscope/internal/stats"
	"failscope/internal/textmine"
)

// Snapshot is the engine's state at one point in the stream: ingestion
// counters plus the partial core.Report the streaming statistics support.
// Distribution-valued analyses (sample slices, ECDFs, model fits, age and
// capacity studies) stay empty — the fidelity scoreboard skips their bands
// rather than failing them.
type Snapshot struct {
	// Seq is the apply generation (events folded in when the snapshot was
	// taken) — the same number /healthz and the X-Failscope-Seq response
	// header report, for correlating scrapes.
	Seq                int64     `json:"seq"`
	Events             int64     `json:"events"`
	Tickets            int64     `json:"tickets"`
	CrashTickets       int64     `json:"crashTickets"`
	DroppedOutOfWindow int64     `json:"droppedOutOfWindow"`
	OutOfOrder         int64     `json:"outOfOrder"`
	Machines           int       `json:"machines"`
	Incidents          int       `json:"incidents"`
	MonitorSamples     int64     `json:"monitorSamples"`
	Watermark          time.Time `json:"watermark"`

	Report     *core.Report             `json:"report"`
	Classifier *ingest.ClassifierReport `json:"classifier,omitempty"`
}

// Fidelity scores the snapshot's report against the paper bands.
func (s *Snapshot) Fidelity() *fidelity.Scoreboard {
	return fidelity.Score(fidelity.Input{Report: s.Report, Classifier: s.Classifier})
}

// summary converts the accumulator into the batch stats.Summary shape:
// count, mean, extremes and standard deviation are exact; the quartiles
// come from the sketch.
func (d *distAcc) summary() stats.Summary {
	n := int(d.m.N())
	if n == 0 {
		return stats.Summary{}
	}
	s := stats.Summary{
		N:    n,
		Mean: d.m.Mean(),
		Min:  d.m.Min(),
		Max:  d.m.Max(),
	}
	if n >= 2 {
		s.StdDev = d.m.StdDev()
	}
	var q [3]float64
	d.q.Quantiles(quartiles, q[:])
	s.P25, s.Median, s.P75 = q[0], q[1], q[2]
	return s
}

// quartiles are the ranks summary reads from one sort of the sketch.
var quartiles = []float64{0.25, 0.5, 0.75}

var kinds = [2]model.MachineKind{model.PM, model.VM}

// Snapshot assembles the queryable state. It holds the engine lock for the
// duration; all the analyses below are O(weeks + classes), never O(events).
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

// snapshotLocked is the assembly body, shared between Snapshot and the
// cross-shard merge (which assembles from a scratch engine holding the
// combined accumulators, so every derived float comes from the exact same
// expressions).
func (e *Engine) snapshotLocked() *Snapshot {
	s := &Snapshot{
		Seq:                e.events,
		Events:             e.events,
		Tickets:            e.tickets,
		CrashTickets:       e.crashTickets,
		DroppedOutOfWindow: e.droppedOutOfWindow,
		OutOfOrder:         e.outOfOrder,
		Machines:           e.ownedLocked(),
		Incidents:          e.incidents,
		MonitorSamples:     e.monitorSamples,
		Watermark:          e.watermark,
	}

	r := &core.Report{}
	r.DatasetStats = e.datasetStatsLocked()
	r.ClassDistribution = e.classDistributionLocked()
	r.WeeklyRates = e.weeklyRatesLocked()
	r.InterFailurePM = e.interFailureLocked(0)
	r.InterFailureVM = e.interFailureLocked(1)
	r.RepairPM = e.repairLocked(0)
	r.RepairVM = e.repairLocked(1)
	r.RecurrencePM = e.recurrenceLocked(0, 0)
	r.RecurrenceVM = e.recurrenceLocked(1, 0)
	r.RandomRecurrent = e.randomRecurrentLocked()
	r.Spatial = e.spatialLocked()
	r.SpatialClass = e.spatialClassLocked()
	s.Report = r

	if e.cfg.Classifier != nil {
		s.Classifier = e.classifierReportLocked()
	}
	return s
}

func (e *Engine) datasetStatsLocked() []core.SystemStats {
	out := make([]core.SystemStats, 0, model.NumSystems+1)
	var total core.SystemStats
	var totalPM, totalVM int
	for _, sys := range model.Systems() {
		i := int(sys)
		s := core.SystemStats{
			System:       sys,
			PMs:          e.serverCount[0][i],
			VMs:          e.serverCount[1][i],
			AllTickets:   e.sysAll[i],
			CrashTickets: e.sysCrash[i],
		}
		if s.AllTickets > 0 {
			s.CrashShare = float64(s.CrashTickets) / float64(s.AllTickets)
		}
		if s.CrashTickets > 0 {
			s.PMShare = float64(e.sysKindCrash[0][i]) / float64(s.CrashTickets)
			s.VMShare = float64(e.sysKindCrash[1][i]) / float64(s.CrashTickets)
		}
		total.PMs += s.PMs
		total.VMs += s.VMs
		total.AllTickets += s.AllTickets
		total.CrashTickets += s.CrashTickets
		totalPM += e.sysKindCrash[0][i]
		totalVM += e.sysKindCrash[1][i]
		out = append(out, s)
	}
	if total.AllTickets > 0 {
		total.CrashShare = float64(total.CrashTickets) / float64(total.AllTickets)
	}
	if total.CrashTickets > 0 {
		total.PMShare = float64(totalPM) / float64(total.CrashTickets)
		total.VMShare = float64(totalVM) / float64(total.CrashTickets)
	}
	return append(out, total)
}

func (e *Engine) classDistributionLocked() []core.ClassShare {
	var out []core.ClassShare
	systems := append([]model.System{0}, model.Systems()...)
	for _, sys := range systems {
		for _, class := range model.Classes() {
			n := e.classCounts[sys][class]
			share := 0.0
			if t := e.classTotals[sys]; t > 0 {
				share = float64(n) / float64(t)
			}
			out = append(out, core.ClassShare{System: sys, Class: class, Count: n, Share: share})
		}
	}
	return out
}

func (e *Engine) weeklyRatesLocked() []core.RateSummary {
	var out []core.RateSummary
	for k := range kinds {
		for s := 0; s <= model.NumSystems; s++ {
			rs := core.RateSummary{Kind: kinds[k], System: model.System(s), Servers: e.serverCount[k][s]}
			if rs.Servers > 0 {
				rates := make([]float64, len(e.weekly[k][s]))
				for i, c := range e.weekly[k][s] {
					rates[i] = float64(c) / float64(rs.Servers)
				}
				rs.Summary = stats.Summarize(rates)
			}
			out = append(out, rs)
		}
	}
	return out
}

func (e *Engine) interFailureLocked(k int) core.InterFailureResult {
	return core.InterFailureResult{
		Kind:                 kinds[k],
		Summary:              e.gaps[k].summary(),
		SingleFailureServers: e.singles[k],
		FailingServers:       e.failing[k],
	}
}

func (e *Engine) repairLocked(k int) core.RepairResult {
	res := core.RepairResult{Kind: kinds[k], Summary: e.repairs[k].summary()}
	if e.kindCrashes[k] > 0 {
		res.RebootShare = float64(e.reboots[k]) / float64(e.kindCrashes[k])
	}
	return res
}

func (e *Engine) recurrenceLocked(k, sys int) core.RecurrenceResult {
	rc := e.rec[k][sys]
	res := core.RecurrenceResult{
		Kind:               kinds[k],
		Failures:           rc.failures,
		UncensoredForDay:   rc.uncDay,
		UncensoredForWeek:  rc.uncWeek,
		UncensoredForMonth: rc.uncMonth,
	}
	if rc.uncDay > 0 {
		res.WithinDay = float64(rc.hitDay) / float64(rc.uncDay)
	}
	if rc.uncWeek > 0 {
		res.WithinWeek = float64(rc.hitWeek) / float64(rc.uncWeek)
	}
	if rc.uncMonth > 0 {
		res.WithinMonth = float64(rc.hitMonth) / float64(rc.uncMonth)
	}
	return res
}

func (e *Engine) randomRecurrentLocked() []core.RandomVsRecurrent {
	var out []core.RandomVsRecurrent
	for k := range kinds {
		for s := 0; s <= model.NumSystems; s++ {
			row := core.RandomVsRecurrent{
				Kind:      kinds[k],
				System:    model.System(s),
				Recurrent: e.recurrenceLocked(k, s).WithinWeek,
			}
			if servers := e.serverCount[k][s]; servers > 0 {
				sum := 0.0
				for _, n := range e.weeklyFailedN[k][s] {
					sum += float64(n) / float64(servers)
				}
				row.Random = sum / float64(len(e.weeklyFailedN[k][s]))
			}
			if row.Random > 0 {
				row.Ratio = row.Recurrent / row.Random
			}
			out = append(out, row)
		}
	}
	return out
}

func (e *Engine) spatialLocked() core.SpatialResult {
	res := core.SpatialResult{
		Incidents:       e.incidents,
		MaxServers:      e.maxIncident,
		MaxServersClass: e.maxIncidentCls,
	}
	if e.incidents == 0 {
		return res
	}
	total := float64(e.incidents)
	res.ShareOne = float64(e.incidentOne) / total
	res.ShareTwoPlus = float64(e.incidentTwoPlus) / total
	res.PMZero = float64(e.pmBuckets[0]) / total
	res.PMOne = float64(e.pmBuckets[1]) / total
	res.PMTwoPlus = float64(e.pmBuckets[2]) / total
	res.VMZero = float64(e.vmBuckets[0]) / total
	res.VMOne = float64(e.vmBuckets[1]) / total
	res.VMTwoPlus = float64(e.vmBuckets[2]) / total
	if n := e.pmBuckets[1] + e.pmBuckets[2]; n > 0 {
		res.DependentPMShare = float64(e.pmBuckets[2]) / float64(n)
	}
	if n := e.vmBuckets[1] + e.vmBuckets[2]; n > 0 {
		res.DependentVMShare = float64(e.vmBuckets[2]) / float64(n)
	}
	res.MeanServers = float64(e.incidentServers) / total
	return res
}

func (e *Engine) spatialClassLocked() []core.ClassSpatialStats {
	var out []core.ClassSpatialStats
	for _, class := range model.Classes() {
		cs := e.classSpatial[class]
		if cs == nil {
			out = append(out, core.ClassSpatialStats{Class: class})
			continue
		}
		out = append(out, core.ClassSpatialStats{
			Class:     class,
			Incidents: cs.incidents,
			Mean:      float64(cs.servers) / float64(cs.incidents),
			Max:       cs.max,
		})
	}
	return out
}

// classifierReportLocked scores the online predictions against the tickets'
// ground-truth labels, in the same shape the batch ingest pipeline reports.
// TrainDocs stays zero: the engine never trains, it applies a frozen model
// to every in-window ticket.
func (e *Engine) classifierReportLocked() *ingest.ClassifierReport {
	cm := &textmine.ConfusionMatrix{Counts: make(map[[2]int]int), Total: int(e.scored), Hits: int(e.scoredHit)}
	seen := make(map[int]bool)
	for key, n := range e.confusion {
		cm.Counts[key] = n
		for _, l := range key {
			if !seen[l] {
				seen[l] = true
				cm.Labels = append(cm.Labels, l)
			}
		}
	}
	sort.Ints(cm.Labels)

	var crashTotal, crashHit, predCrash, predCrashHit, crashClassHit int
	for key, n := range cm.Counts {
		truthCrash := key[0] > 0
		predIsCrash := key[1] > 0
		if truthCrash {
			crashTotal += n
			if predIsCrash {
				crashHit += n
			}
			if key[0] == key[1] {
				crashClassHit += n
			}
		}
		if predIsCrash {
			predCrash += n
			if truthCrash {
				predCrashHit += n
			}
		}
	}
	rep := &ingest.ClassifierReport{
		TestDocs:  int(e.scored),
		Confusion: cm,
	}
	if cm.Total > 0 {
		rep.Accuracy = cm.Accuracy()
	}
	if s1 := e.cfg.Classifier.Stage1(); s1 != nil {
		rep.Stage1Purity = s1.Purity()
	}
	if s2 := e.cfg.Classifier.Stage2(); s2 != nil {
		rep.Stage2Purity = s2.Purity()
	}
	if crashTotal > 0 {
		rep.CrashRecall = float64(crashHit) / float64(crashTotal)
		rep.CrashClassAccuracy = float64(crashClassHit) / float64(crashTotal)
	}
	if predCrash > 0 {
		rep.CrashPrecision = float64(predCrashHit) / float64(predCrash)
	}
	return rep
}
