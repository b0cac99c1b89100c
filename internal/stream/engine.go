package stream

import (
	"fmt"
	"sync"
	"time"

	"failscope/internal/detect"
	"failscope/internal/mempool"
	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/sketch"
	"failscope/internal/telemetry"
	"failscope/internal/textmine"
)

// Config configures the incremental engine.
type Config struct {
	// Observation is the study window (weekly buckets, censoring horizon).
	// Required: the engine exploits knowing the window end up front to keep
	// recurrence denominators incremental.
	Observation model.Window

	// FineWindow is where 15-minute data exists (kept for parity with the
	// batch options; the streaming statistics do not consume it yet).
	FineWindow model.Window

	// MonitorEpoch/MonitorRetention are unread: the engine keeps no
	// monitoring store. Monitoring samples reach the detector as they
	// arrive and count in MonitorSamples whatever these hold.
	MonitorEpoch     time.Time
	MonitorRetention time.Duration

	// Classifier, when set, classifies every ticket text online
	// (nearest-centroid on the frozen model) and scores the predictions
	// against the tickets' ground-truth labels.
	Classifier *textmine.OnlineClassifier

	// Observer, when non-nil, counts stream metrics under "stream.*". It
	// never affects the statistics.
	Observer *obs.Observer

	// Detector, when non-nil, is the online failure-detection layer: the
	// engine feeds it machines, effective crash tickets, monitoring
	// samples, placements and watermark advances as they apply. Like
	// Observer it is pure observation — snapshots and reports are
	// byte-identical with detection on or off (enforced by
	// TestDetectionByteIdentical at the repo root).
	Detector *detect.Detector

	// GaugeLabel, when non-empty, makes the engine publish its stream.*
	// gauges under a {shard="<label>"} Prometheus label and leave the
	// unlabeled families and the detect.* families to the coordinator — N
	// shard engines can then share one registry without stomping each
	// other's point-in-time values, while counters and histograms (which
	// aggregate by addition) stay shared and unlabeled. Empty (the default,
	// every single-engine deployment) keeps the metric surface exactly as
	// before. The engine's gauges are
	// published when the registry is read (obs.Registry.Collect), under a
	// key per label: a later engine with the same label on the same
	// registry replaces an earlier one's.
	GaugeLabel string
}

// kindIndex maps PM/VM to the engine's dense array index; -1 otherwise.
func kindIndex(k model.MachineKind) int {
	switch k {
	case model.PM:
		return 0
	case model.VM:
		return 1
	}
	return -1
}

// distAcc accumulates one empirical distribution: exact moments plus a
// quantile sketch for the order statistics.
type distAcc struct {
	m sketch.Moments
	q *sketch.Quantile
}

// distAccK sizes the engine's quantile sketches: a few thousand gap/repair
// observations per kind, so a deeper level capacity than the obs-histogram
// default keeps the quartiles within the convergence test's 5% band.
const distAccK = 1024

func (d *distAcc) add(v float64) {
	if d.q == nil {
		d.q = sketch.NewQuantile(distAccK)
	}
	d.m.Add(v)
	d.q.Add(v)
}

// recCounters tracks the §IV.D recurrence probabilities incrementally.
// Because the observation end is known up front, a trigger failure's
// membership in each window's denominator (trigger + window ≤ end) is
// decided at arrival; the numerator increments when the server's next
// failure arrives inside the window — exactly the batch censoring rule.
type recCounters struct {
	failures                  int
	uncDay, uncWeek, uncMonth int
	hitDay, hitWeek, hitMonth int
}

// classSpatialAcc aggregates Table VII for one class.
type classSpatialAcc struct {
	incidents, servers, max int
}

// Journal is the engine's durability hook. Append is called under the
// engine's apply lock, immediately before a batch is folded in, with the
// sequence number the batch's first event will take (the engine's event
// count plus one); appends therefore land in exactly apply order. Sync is
// called once per commit group, after every batch in the group has been
// appended and applied, and before any of the group's callers observe
// success — a batch whose caller saw a nil error is on stable storage.
type Journal interface {
	Append(startSeq int64, events []Event) error
	Sync() error
}

// WireJournal is a Journal that can also record a batch from the JSONL
// body it was decoded from (see ApplyBatchTimed), in place of Append's
// re-encode.
// AppendWire is called with Append's sequence and locking contract and the
// batch's event count; jsonl decodes back to exactly the batch's events.
type WireJournal interface {
	Journal
	AppendWire(startSeq int64, count int, jsonl []byte) error
}

// Engine is the incremental analysis engine. All methods are safe for
// concurrent use; Apply batches are serialized internally.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	win model.Window

	// journal, when non-nil, receives every applied batch (under mu).
	journal Journal

	// Group-commit queue (applyGrouped): qmu guards the waiter list and
	// the leader flag; it is never held while e.mu is being acquired.
	qmu     sync.Mutex
	queue   []*applyReq
	leading bool

	// engineState is everything the checkpoint image holds.
	engineState

	// refMachines marks entries of e.machines that are replicas of machines
	// owned by another shard (Event.Ref): registered for incident kind
	// lookups but excluded from every count, so per-shard counters sum to
	// the single-engine numbers. Always empty outside sharded deployments.
	refMachines map[model.MachineID]bool

	// predScratch holds the classifier's reusable token/vector buffers —
	// the engine is serialized under mu, so one scratch serves every
	// ticket.
	predScratch textmine.PredictScratch

	// imgKeys is WriteState's reused map-key buffer.
	imgKeys []model.MachineID

	// gauges caches the (possibly shard-labeled) metric names so a
	// registry read never rebuilds labeled strings.
	gauges GaugeNames

	// applyM holds the group-commit path's metric handles, resolved by the
	// first group (under mu), so the path takes no registry lock per group
	// and an engine that never applies adds no families.
	applyM *applyMetrics
}

// applyMetrics are the metric handles the group-commit path records into.
type applyMetrics struct {
	ms              *obs.Histogram // stream.apply_ms
	groups, batches *obs.Counter   // stream.apply_groups, stream.apply_grouped_batches
}

// engineState is the engine's statistical state: every field the
// checkpoint image (persist.go) writes and restores.
type engineState struct {
	events    int64
	watermark time.Time

	machines    map[model.MachineID]*model.Machine
	machineList []*model.Machine
	// serverCount[kind][sys] with sys index 0 = all systems, 1..5 = Sys I–V.
	serverCount [2][model.NumSystems + 1]int

	tickets, crashTickets int64
	droppedOutOfWindow    int64
	outOfOrder            int64

	// Table II counters, indexed by the ticket's subsystem (1..5).
	sysAll, sysCrash [model.NumSystems + 1]int
	sysKindCrash     [2][model.NumSystems + 1]int

	// weekly[kind][sys] is the per-week crash count (Fig. 2 numerators);
	// weeklyFailed the distinct failing servers per week and
	// weeklyFailedN their number (Table V random probability). Snapshots
	// read only the numbers, so a cross-shard merge sums them; the image
	// holds the sets, and restore recounts them.
	weekly        [2][model.NumSystems + 1][]int
	weeklyFailed  [2][model.NumSystems + 1][]map[model.MachineID]bool
	weeklyFailedN [2][model.NumSystems + 1][]int

	// classCounts[sys][class] with sys 0 = all (Fig. 1).
	classCounts map[model.System]map[model.FailureClass]int
	classTotals map[model.System]int

	// Per-server crash history for gaps and recurrence.
	lastCrash  map[model.MachineID]time.Time
	crashCount map[model.MachineID]int

	gaps        [2]distAcc // inter-failure gaps, days
	repairs     [2]distAcc // repair times, hours
	kindCrashes [2]int
	reboots     [2]int
	failing     [2]int // servers with ≥1 crash
	singles     [2]int // servers with exactly 1 crash

	rec [2][model.NumSystems + 1]recCounters

	// Spatial (§IV.E) counters.
	incidents       int
	incidentOne     int
	incidentTwoPlus int
	incidentServers int
	maxIncident     int
	maxIncidentCls  model.FailureClass
	pmBuckets       [3]int // 0 / 1 / 2+ PMs per incident
	vmBuckets       [3]int
	classSpatial    map[model.FailureClass]*classSpatialAcc

	monitorSamples int64

	// Online classification scoring (when cfg.Classifier is set).
	confusion map[[2]int]int
	scored    int64
	scoredHit int64
}

// newEngineState returns the empty state of an engine whose observation
// window spans weeks weeks.
func newEngineState(weeks int) engineState {
	st := engineState{
		machines:     make(map[model.MachineID]*model.Machine),
		classCounts:  make(map[model.System]map[model.FailureClass]int),
		classTotals:  make(map[model.System]int),
		lastCrash:    make(map[model.MachineID]time.Time),
		crashCount:   make(map[model.MachineID]int),
		classSpatial: make(map[model.FailureClass]*classSpatialAcc),
		confusion:    make(map[[2]int]int),
	}
	for k := 0; k < 2; k++ {
		for s := 0; s <= model.NumSystems; s++ {
			st.weekly[k][s] = make([]int, weeks)
			st.weeklyFailed[k][s] = make([]map[model.MachineID]bool, weeks)
			st.weeklyFailedN[k][s] = make([]int, weeks)
		}
	}
	return st
}

// GaugeNames are the stream.* gauge family names Totals.Publish writes,
// built once per publisher so a registry read never rebuilds labeled
// strings.
type GaugeNames struct {
	events, tickets, crashTickets, machines, incidents    string
	monitorSamples, dropped, distances, pruned, watermark string
}

// NewGaugeNames returns the stream.* gauge names, under a {shard="label"}
// Prometheus label when label is non-empty.
func NewGaugeNames(label string) GaugeNames {
	name := func(base string) string {
		if label == "" {
			return base
		}
		return telemetry.Labeled(base, "shard", label)
	}
	return GaugeNames{
		events:         name(SeqGauge),
		tickets:        name("stream.tickets"),
		crashTickets:   name("stream.crash_tickets"),
		machines:       name("stream.machines"),
		incidents:      name("stream.incidents"),
		monitorSamples: name("stream.monitor_samples"),
		dropped:        name("stream.dropped_out_of_window"),
		distances:      name("stream.predict_distances"),
		pruned:         name("stream.predict_distances_pruned"),
		watermark:      name("stream.watermark_unix_seconds"),
	}
}

// NewEngine creates an engine for the given configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Observation.Duration() <= 0 {
		return nil, fmt.Errorf("stream: empty observation window")
	}
	e := &Engine{
		cfg:         cfg,
		win:         cfg.Observation,
		engineState: newEngineState(cfg.Observation.NumWeeks()),
		gauges:      NewGaugeNames(cfg.GaugeLabel),
	}
	if cfg.Detector != nil {
		cfg.Detector.Instrument(cfg.Observer.Metrics())
	}
	cfg.Observer.Metrics().Collect(e.gauges.events, e.publish)
	return e, nil
}

// SetJournal attaches (or, with nil, detaches) the engine's write-ahead
// journal. Attach only at a quiescent point — after recovery replay and
// before serving ingest — so the journal never re-records replayed events.
func (e *Engine) SetJournal(j Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = j
}

// journalBatchLocked appends a non-empty batch to the journal (when one is
// attached) at the sequence its first event will take: from wire, the
// body the events were decoded from, when there is one and the journal
// takes it, else by Append. A failed append poisons the batch: it is not
// applied, so the journal never lags behind the applied state.
func (e *Engine) journalBatchLocked(events []Event, wire []byte) error {
	if e.journal == nil || len(events) == 0 {
		return nil
	}
	var err error
	if wj, ok := e.journal.(WireJournal); ok && wire != nil {
		err = wj.AppendWire(e.events+1, len(events), wire)
	} else {
		err = e.journal.Append(e.events+1, events)
	}
	if err != nil {
		return fmt.Errorf("stream: journal append: %w", err)
	}
	return nil
}

// syncJournalLocked makes the group's appends durable before any caller
// observes success.
func (e *Engine) syncJournalLocked() error {
	if e.journal == nil {
		return nil
	}
	if err := e.journal.Sync(); err != nil {
		return fmt.Errorf("stream: journal sync: %w", err)
	}
	return nil
}

// applyReq is one caller's batch waiting in the group-commit queue. The
// leader records how long the engine spent inside applyBatchLocked for the
// batch (applied) so the request's trace can show engine time separately
// from queue wait.
type applyReq struct {
	events  []Event
	wire    []byte // the body events were decoded from, when journaled from it
	applied time.Duration
	err     error // leader-stashed result while durability is pending
	done    chan error
}

var applyReqPool = mempool.New("stream.applyreq", 64,
	func() *applyReq { return &applyReq{done: make(chan error, 1)} },
	func(r *applyReq) *applyReq { r.events, r.wire, r.applied, r.err = nil, nil, 0, nil; return r },
)

// SeqGauge is the gauge an unlabeled engine publishes its sequence (Seq)
// as, and a shard router the fleet's.
const SeqGauge = "stream.events"

// stateLockMetric is WriteState's lock-hold histogram.
const stateLockMetric = "stream.state_lock_ms"

// MetricHelp is the /metrics HELP text of the stream.* families that have
// one beyond the generated line.
var MetricHelp = map[string]string{
	SeqGauge:                        "events applied by the streaming engine",
	"stream.apply_ms":               "engine batch-apply latency in milliseconds",
	stateLockMetric:                 "milliseconds a state image (checkpoint) held the engine lock (ingest waits behind it)",
	"stream.watermark_unix_seconds": "engine event-time watermark as a unix timestamp",
}

// applyBucketsMS are the engine-apply latency histogram bounds, in
// milliseconds.
var applyBucketsMS = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000}

// applyBatchLocked applies one batch under e.mu, stopping at the first
// event that fails and naming its index in the batch.
func (e *Engine) applyBatchLocked(events []Event) error {
	for i := range events {
		if err := e.applyLocked(&events[i]); err != nil {
			return fmt.Errorf("stream: event %d: %w", i, err)
		}
	}
	return nil
}

// Apply folds one ordered event batch into the engine's state through
// leader-based group commit: the first caller to arrive takes e.mu once,
// applies its own batch plus every batch that concurrent callers enqueue
// while it holds the lock, then, with a journal, runs one sync for the
// whole group. Under concurrent ingest this amortizes the per-batch fixed
// costs (lock handoff, sync) across the group; a lone caller is a group
// of one. Statistics and detector state are identical either way —
// applyLocked runs per event in arrival order regardless of grouping,
// alert expiry included. On error the batch's events before the failing
// one stay applied.
func (e *Engine) Apply(events []Event) error {
	_, err := e.applyGrouped(events, nil)
	return err
}

// ApplyTimed is Apply returning, in addition, the wall time the engine
// spent inside applyBatchLocked for this caller's batch — engine-apply
// cost with the group-commit queue wait excluded, the third leg of the
// request trace's decode → group-commit → engine-apply span chain. The
// timing feeds metrics and traces only; statistics are untouched.
func (e *Engine) ApplyTimed(events []Event) (time.Duration, error) {
	return e.applyGrouped(events, nil)
}

// ApplyBatchTimed is ApplyTimed for a batch decoded from the wire: a
// WireJournal records the body the batch was decoded from, as received,
// instead of re-encoding its events. Each batch of a commit group is
// journaled from its own body. A batch whose events did not all come from
// one DecodeJSONLInto call is journaled by Append.
func (e *Engine) ApplyBatchTimed(b *Batch) (time.Duration, error) {
	return e.applyGrouped(b.Events, b.wire)
}

func (e *Engine) applyGrouped(events []Event, wire []byte) (time.Duration, error) {
	e.qmu.Lock()
	if e.leading {
		req := applyReqPool.Get()
		req.events, req.wire = events, wire
		e.queue = append(e.queue, req)
		e.qmu.Unlock()
		err := <-req.done
		applied := req.applied
		applyReqPool.Put(req)
		return applied, err
	}
	e.leading = true
	e.qmu.Unlock()

	e.mu.Lock()
	am := e.applyMetricsLocked()
	t0 := time.Now()
	err := e.journalBatchLocked(events, wire)
	if err == nil {
		err = e.applyBatchLocked(events)
	}
	own := time.Since(t0)
	am.ms.Observe(float64(own) / float64(time.Millisecond))
	batches := 1
	// With a journal attached, follower results are withheld until the
	// group's single Sync lands; without one they release immediately,
	// keeping the journal-off hot path unchanged.
	var group []*applyReq
	for {
		e.qmu.Lock()
		pending := e.queue
		e.queue = nil
		if len(pending) == 0 {
			// Atomically with the empty-queue observation: any later
			// arrival becomes the next leader, so no request is stranded.
			e.leading = false
			e.qmu.Unlock()
			break
		}
		e.qmu.Unlock()
		for _, r := range pending {
			t0 = time.Now()
			rerr := e.journalBatchLocked(r.events, r.wire)
			if rerr == nil {
				rerr = e.applyBatchLocked(r.events)
			}
			r.applied = time.Since(t0)
			am.ms.Observe(float64(r.applied) / float64(time.Millisecond))
			if e.journal != nil {
				r.err = rerr
				group = append(group, r)
			} else {
				r.done <- rerr
			}
			batches++
		}
	}
	am.groups.Add(1)
	am.batches.Add(int64(batches))
	if serr := e.syncJournalLocked(); serr != nil {
		if err == nil {
			err = serr
		}
		for _, r := range group {
			if r.err == nil {
				r.err = serr
			}
		}
	}
	for _, r := range group {
		r.done <- r.err
	}
	e.mu.Unlock()
	return own, err
}

// applyMetricsLocked returns the group-commit metric handles, resolving
// them on first use.
func (e *Engine) applyMetricsLocked() *applyMetrics {
	if e.applyM == nil {
		m := e.cfg.Observer.Metrics()
		e.applyM = &applyMetrics{
			ms:      m.Histogram("stream.apply_ms", applyBucketsMS...),
			groups:  m.Counter("stream.apply_groups"),
			batches: m.Counter("stream.apply_grouped_batches"),
		}
	}
	return e.applyM
}

// publish is the engine's registry collector: it publishes the headline
// stream.* gauges from one Totals read and, for an unlabeled engine, the
// detect.* families. Only the Totals copy holds e.mu; the detector takes
// its own lock, so a registry read holds up ingest for microseconds. Pure
// observation.
func (e *Engine) publish(m *obs.Registry) {
	t := e.Totals()
	t.Publish(m, &e.gauges)
	if e.cfg.GaugeLabel != "" {
		return // a shard coordinator publishes the fleet-wide families
	}
	if e.cfg.Detector != nil {
		e.cfg.Detector.Publish(m)
	}
}

// ownedLocked is the count of machines this engine owns: inventory entries
// minus replicas of other shards' machines.
func (e *Engine) ownedLocked() int { return len(e.machines) - len(e.refMachines) }

func (e *Engine) applyLocked(ev *Event) error {
	if ev.Ref && ev.Type != "machine" && ev.Type != "advance" && ev.Type != "placement" {
		return fmt.Errorf("ref event with type %q (only machine, advance and placement replicas are defined)", ev.Type)
	}
	if !ev.Ref {
		// Replicas are uncounted: their primary copy is counted on the
		// owning shard, so per-shard event counts sum to the single-engine
		// sequence number.
		e.events++
	}
	if t := ev.When(); t.After(e.watermark) {
		e.watermark = t
		// Expire before the event is observed: an alert whose deadline
		// the stream has passed must not block a raise, however the
		// stream was cut into batches and commit groups.
		if d := e.cfg.Detector; d != nil && d.Due(t) {
			d.Expire(t)
		}
	}
	switch ev.Type {
	case "machine":
		if ev.Machine == nil {
			return fmt.Errorf("machine event without machine")
		}
		return e.addMachineLocked(ev.Machine, ev.Ref)
	case "ticket":
		if ev.Ticket == nil {
			return fmt.Errorf("ticket event without ticket")
		}
		e.addTicketLocked(*ev.Ticket)
		return nil
	case "incident":
		if ev.Incident == nil {
			return fmt.Errorf("incident event without incident")
		}
		e.addIncidentLocked(*ev.Incident)
		return nil
	case "sample":
		if ev.Time != nil {
			e.monitorSamples++
			if e.cfg.Detector != nil {
				e.cfg.Detector.ObserveSample(ev.ServerID, ev.Metric, *ev.Time, ev.Value)
			}
		}
		return nil
	case "power":
		// Counted and clocked above; no statistic or detector reads it.
		return nil
	case "placement":
		if ev.Time != nil && ev.Host != "" && e.cfg.Detector != nil {
			if ev.Ref {
				// A replica moves its host's consolidation count; the
				// owning shard's detector tracks the VM itself.
				e.cfg.Detector.ObservePlacementRef(ev.ServerID, ev.Host, *ev.Time)
			} else {
				e.cfg.Detector.ObservePlacement(ev.ServerID, ev.Host, *ev.Time)
			}
		}
		return nil
	case "advance":
		// The watermark is already taken above; the heartbeat moves the
		// detector's clock too, on every shard it is broadcast to.
		if e.cfg.Detector != nil && !e.watermark.IsZero() {
			e.cfg.Detector.Advance(e.watermark)
		}
		return nil
	default:
		return fmt.Errorf("unknown event type %q", ev.Type)
	}
}

func (e *Engine) addMachineLocked(m *model.Machine, ref bool) error {
	if m.ID == "" {
		return fmt.Errorf("machine with empty ID")
	}
	if prev, dup := e.machines[m.ID]; dup {
		if !ref && e.refMachines[m.ID] {
			// The primary copy reached an engine that had only seen the
			// replica (never happens under the router's deterministic
			// ownership, handled for direct users): promote and count it.
			delete(e.refMachines, m.ID)
			e.machineList = append(e.machineList, prev)
			e.countMachineLocked(prev)
		}
		return nil // idempotent re-registration
	}
	cp := *m
	e.machines[cp.ID] = &cp
	if ref {
		if e.refMachines == nil {
			e.refMachines = make(map[model.MachineID]bool)
		}
		e.refMachines[cp.ID] = true
		if e.cfg.Detector != nil {
			// A replica VM still occupies a slot on its host: the
			// detector's consolidation count must see the whole fleet.
			e.cfg.Detector.ObserveMachineRef(&cp)
		}
		return nil
	}
	e.machineList = append(e.machineList, &cp)
	e.countMachineLocked(&cp)
	return nil
}

// countMachineLocked folds an owned machine into the inventory counters
// and the detection layer. Replicas never reach it.
func (e *Engine) countMachineLocked(cp *model.Machine) {
	if e.cfg.Detector != nil {
		e.cfg.Detector.ObserveMachine(cp)
	}
	if k := kindIndex(cp.Kind); k >= 0 {
		e.serverCount[k][0]++
		if cp.System >= 1 && cp.System <= model.NumSystems {
			e.serverCount[k][int(cp.System)]++
		}
	}
}

// labelOf mirrors the batch pipeline's classification label: 0 for
// background tickets, otherwise the failure class.
func labelOf(isCrash bool, class model.FailureClass) int {
	if !isCrash {
		return 0
	}
	return int(class)
}

func (e *Engine) addTicketLocked(t model.Ticket) {
	if !e.win.Contains(t.Opened) {
		e.droppedOutOfWindow++
		return
	}
	e.tickets++
	if t.System >= 1 && t.System <= model.NumSystems {
		e.sysAll[t.System]++
	}

	if e.cfg.Classifier != nil {
		pred := e.cfg.Classifier.PredictWith(&e.predScratch, t.Description+" "+t.Resolution)
		truth := labelOf(t.IsCrash, t.Class)
		e.confusion[[2]int{truth, pred}]++
		e.scored++
		if pred == truth {
			e.scoredHit++
		}
	}
	if !t.IsCrash {
		return
	}
	e.crashTickets++
	if e.cfg.Detector != nil {
		e.cfg.Detector.ObserveTicket(&t, t.Class)
	}
	if t.System >= 1 && t.System <= model.NumSystems {
		e.sysCrash[t.System]++
	}

	// Fig. 1 class mix, keyed by the ticket's subsystem plus the
	// system-0 "all" row — the same double increment core.ClassDistribution
	// performs.
	if e.classCounts[t.System] == nil {
		e.classCounts[t.System] = make(map[model.FailureClass]int)
	}
	e.classCounts[t.System][t.Class]++
	e.classTotals[t.System]++
	if e.classCounts[0] == nil {
		e.classCounts[0] = make(map[model.FailureClass]int)
	}
	e.classCounts[0][t.Class]++
	e.classTotals[0]++

	m := e.machines[t.ServerID]
	k := -1
	if m != nil {
		k = kindIndex(m.Kind)
	}
	if k >= 0 && t.System >= 1 && t.System <= model.NumSystems {
		e.sysKindCrash[k][t.System]++
	}
	if k < 0 {
		// Unknown server or box: the batch analyses skip these tickets in
		// every kind-keyed statistic; the class mix above still counts them.
		return
	}
	sysIdx := 0
	if m.System >= 1 && m.System <= model.NumSystems {
		sysIdx = int(m.System)
	}

	// Fig. 2 weekly rate numerators + Table V distinct failing servers.
	if wi := e.win.WeekIndex(t.Opened); wi >= 0 && wi < len(e.weekly[k][0]) {
		for _, s := range []int{0, sysIdx} {
			e.weekly[k][s][wi]++
			failed := e.weeklyFailed[k][s][wi]
			if failed == nil {
				failed = make(map[model.MachineID]bool)
				e.weeklyFailed[k][s][wi] = failed
			}
			if _, seen := failed[t.ServerID]; !seen {
				e.weeklyFailedN[k][s][wi]++
			}
			failed[t.ServerID] = true
			if sysIdx == 0 {
				break
			}
		}
	}

	// Fig. 4 repair hours and reboot share.
	e.kindCrashes[k]++
	if t.Class == model.ClassReboot {
		e.reboots[k]++
	}
	if h := t.RepairTime().Hours(); h > 0 {
		e.repairs[k].add(h)
	}

	// Fig. 3 inter-failure gaps + Fig. 5 recurrence, driven by the
	// server's previous crash.
	prev, seen := e.lastCrash[t.ServerID]
	if seen {
		if t.Opened.Before(prev) {
			e.outOfOrder++
			e.cfg.Observer.Metrics().Add("stream.out_of_order", 1)
		}
		if gap := t.Opened.Sub(prev).Hours() / 24; gap > 0 {
			e.gaps[k].add(gap)
		}
		// The previous crash's recurrence windows resolve now: a hit in
		// each window whose full extent fit inside the observation.
		d := t.Opened.Sub(prev)
		for _, s := range []int{0, sysIdx} {
			rc := &e.rec[k][s]
			if !prev.Add(day).After(e.win.End) && d <= day {
				rc.hitDay++
			}
			if !prev.Add(week).After(e.win.End) && d <= week {
				rc.hitWeek++
			}
			if !prev.Add(month).After(e.win.End) && d <= month {
				rc.hitMonth++
			}
			if sysIdx == 0 {
				break
			}
		}
	}
	// This crash becomes a trigger: denominators are decided immediately
	// because the observation end is known.
	for _, s := range []int{0, sysIdx} {
		rc := &e.rec[k][s]
		rc.failures++
		if !t.Opened.Add(day).After(e.win.End) {
			rc.uncDay++
		}
		if !t.Opened.Add(week).After(e.win.End) {
			rc.uncWeek++
		}
		if !t.Opened.Add(month).After(e.win.End) {
			rc.uncMonth++
		}
		if sysIdx == 0 {
			break
		}
	}

	// Single-failure share (§IV.B).
	e.crashCount[t.ServerID]++
	switch e.crashCount[t.ServerID] {
	case 1:
		e.failing[k]++
		e.singles[k]++
	case 2:
		e.singles[k]--
	}
	if !seen || t.Opened.After(prev) {
		e.lastCrash[t.ServerID] = t.Opened
	}
}

func (e *Engine) addIncidentLocked(inc model.Incident) {
	e.incidents++
	n := len(inc.Servers)
	e.incidentServers += n
	if n == 1 {
		e.incidentOne++
	} else if n >= 2 {
		e.incidentTwoPlus++
	}
	if n > e.maxIncident {
		e.maxIncident = n
		e.maxIncidentCls = inc.Class
	}
	pms, vms := 0, 0
	for _, id := range inc.Servers {
		if m := e.machines[id]; m != nil {
			switch m.Kind {
			case model.PM:
				pms++
			case model.VM:
				vms++
			}
		}
	}
	e.pmBuckets[bucketOf(pms)]++
	e.vmBuckets[bucketOf(vms)]++

	cs := e.classSpatial[inc.Class]
	if cs == nil {
		cs = &classSpatialAcc{}
		e.classSpatial[inc.Class] = cs
	}
	cs.incidents++
	cs.servers += n
	if n > cs.max {
		cs.max = n
	}
}

func bucketOf(n int) int {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1
	default:
		return 2
	}
}

// recurrence windows, identical to the batch definitions.
var (
	day   = 24 * time.Hour
	week  = 7 * day
	month = 30 * day
)

// Detector returns the engine's online detection layer (nil when
// detection is disabled).
func (e *Engine) Detector() *detect.Detector { return e.cfg.Detector }

// Seq returns the engine's apply generation: the count of events folded
// in so far. It is deterministic for a given event stream regardless of
// how callers batched it or how many appliers raced, so scrapes of
// /metrics, /v1/alerts and /v1/report that report the same Seq observed
// the same state.
func (e *Engine) Seq() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events
}

// Totals is a cheap counter snapshot: the values the engine's collector
// publishes as its stream.* gauges, and a shard coordinator sums (Add) into
// fleet-wide ones, without assembling a full Snapshot.
type Totals struct {
	Events             int64
	Tickets            int64
	CrashTickets       int64
	MonitorSamples     int64
	DroppedOutOfWindow int64
	PredictDistances   int64
	PredictPruned      int64
	Machines           int
	Incidents          int
	Watermark          time.Time
}

// Totals returns the engine's headline counters under the apply lock.
func (e *Engine) Totals() Totals {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totalsLocked()
}

func (e *Engine) totalsLocked() Totals {
	return Totals{
		Events:             e.events,
		Tickets:            e.tickets,
		CrashTickets:       e.crashTickets,
		MonitorSamples:     e.monitorSamples,
		DroppedOutOfWindow: e.droppedOutOfWindow,
		PredictDistances:   int64(e.predScratch.Distances),
		PredictPruned:      int64(e.predScratch.Pruned),
		Machines:           e.ownedLocked(),
		Incidents:          e.incidents,
		Watermark:          e.watermark,
	}
}

// Add sums u's counters into t; the watermark becomes the later of the two.
func (t *Totals) Add(u Totals) {
	t.Events += u.Events
	t.Tickets += u.Tickets
	t.CrashTickets += u.CrashTickets
	t.MonitorSamples += u.MonitorSamples
	t.DroppedOutOfWindow += u.DroppedOutOfWindow
	t.PredictDistances += u.PredictDistances
	t.PredictPruned += u.PredictPruned
	t.Machines += u.Machines
	t.Incidents += u.Incidents
	if u.Watermark.After(t.Watermark) {
		t.Watermark = u.Watermark
	}
}

// Publish sets the stream.* gauges under g's names from t (the watermark
// only once there is one).
func (t Totals) Publish(r *obs.Registry, g *GaugeNames) {
	r.Set(g.events, float64(t.Events))
	r.Set(g.tickets, float64(t.Tickets))
	r.Set(g.crashTickets, float64(t.CrashTickets))
	r.Set(g.machines, float64(t.Machines))
	r.Set(g.incidents, float64(t.Incidents))
	r.Set(g.monitorSamples, float64(t.MonitorSamples))
	r.Set(g.dropped, float64(t.DroppedOutOfWindow))
	r.Set(g.distances, float64(t.PredictDistances))
	r.Set(g.pruned, float64(t.PredictPruned))
	if !t.Watermark.IsZero() {
		r.Set(g.watermark, float64(t.Watermark.UnixNano())/1e9)
	}
}
