// Package detect is the online failure-detection layer over the live
// stream: per-machine detectors that observe the same events the engine
// ingests and raise/clear machine-level alerts before the next ticket
// arrives. Three signal sources combine:
//
//   - Recurrence evidence — the paper's §IV.D result that failures recur:
//     a machine whose recent crash history shows a burst (MinCrashes
//     crash tickets within BurstWindow) is alerted, because its next
//     failure is far more likely than the fleet base rate suggests.
//   - Usage anomalies — an EWMA residual + CUSUM change-point detector
//     over every monitoring series (cpu/mem/disk utilization, network),
//     O(1) state per series with a cold-start warmup. The thresholds are
//     calibrated to stay silent on the simulator's stationary usage noise
//     and trip on sustained level shifts.
//   - A feature-based risk score reusing the §IV join's capacity, usage,
//     age and consolidation factor directions, attached to every alert.
//
// Every raised alert is scored against ground truth as the stream plays
// out: the next crash ticket on the machine within Horizon confirms the
// alert (recording its lead time), an alert whose horizon elapses without
// one expires as a false alarm, and an alert whose horizon extends past
// the stream watermark at shutdown stays active — censored, excluded from
// precision, mirroring the engine's §IV.D recurrence censoring rule.
//
// The detector is deterministic and RNG-free, and it never feeds back
// into the engine's statistics: snapshots are byte-identical with
// detection on or off (enforced at the repo root by
// TestDetectionByteIdentical).
package detect

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/sketch"
	"failscope/internal/textmine"
)

// Alert sources.
const (
	SourceRecurrence = "recurrence"
	SourceAnomaly    = "anomaly"
)

// Outcomes of cleared alerts.
const (
	OutcomeConfirmed = "confirmed"
	OutcomeExpired   = "expired"
)

// Calibrated defaults. MinCrashes/BurstWindow/Horizon were fitted against
// dcsim ground truth on the canonical small and paper studies: 4 crashes
// inside 30 days marks the heavy-tail "lemon" machines (per-machine Gamma
// intensity multipliers) whose next failure lands inside the 120-day
// horizon in >70% of uncensored cases on both studies, the detection
// scoreboard's precision pass band.
const (
	DefaultMinCrashes  = 4
	DefaultBurstWindow = 30 * 24 * time.Hour
	DefaultHorizon     = 120 * 24 * time.Hour
)

// The anomaly detector's constants: EWMA level/scale smoothing, cold-start
// warmup in samples, and the CUSUM drift/threshold in σ-normalized
// residual units. The canonical studies' usage series are stationary
// noise, and at k=1/h=16 the CUSUM stays silent across all ~3M canonical
// samples (the detect_anomaly_alerts band enforces this) while a sustained
// clamped-scale level shift still trips within two or three samples.
const (
	ewmaAlpha      float64 = 0.25
	warmup                 = 12
	cusumDrift     float64 = 1.0
	cusumThreshold float64 = 16
	residualClamp  float64 = 8
)

// ringSize caps the recently-cleared alert ring.
const ringSize = 64

// Config parameterizes a Detector. The zero value takes every default.
type Config struct {
	// MinCrashes and BurstWindow define the recurrence alert rule: raise
	// when a machine's MinCrashes most recent crash tickets all fall
	// within BurstWindow of each other.
	MinCrashes  int
	BurstWindow time.Duration

	// Horizon bounds an alert's life: the next crash inside it confirms,
	// its elapse without one expires the alert as a false alarm.
	Horizon time.Duration

	// Classifier, when set, attributes a failure class to every raised
	// alert from the triggering ticket's text (the frozen online model);
	// otherwise the ticket's own label is used.
	Classifier *textmine.OnlineClassifier
}

func (c Config) withDefaults() Config {
	if c.MinCrashes <= 0 {
		c.MinCrashes = DefaultMinCrashes
	}
	if c.BurstWindow <= 0 {
		c.BurstWindow = DefaultBurstWindow
	}
	if c.Horizon <= 0 {
		c.Horizon = DefaultHorizon
	}
	return c
}

// Alert is one raised detection. Cleared alerts additionally carry the
// outcome, clear time and (when confirmed) the lead time to the crash
// that confirmed them.
type Alert struct {
	ID      int64             `json:"id"`
	Machine model.MachineID   `json:"machine"`
	Kind    model.MachineKind `json:"kind"`
	System  model.System      `json:"system"`
	// Source is "recurrence" (crash-burst rule) or "anomaly" (CUSUM trip).
	Source string `json:"source"`
	// Metric names the series that tripped an anomaly alert.
	Metric   string    `json:"metric,omitempty"`
	RaisedAt time.Time `json:"raisedAt"`
	// Deadline is RaisedAt + Horizon: unconfirmed alerts expire here.
	Deadline time.Time `json:"deadline"`
	// Crashes is the machine's crash-ticket count when the alert rose.
	Crashes int `json:"crashes"`
	// Risk is the §IV feature-based risk score in [0, 1].
	Risk float64 `json:"risk"`
	// Cause is the attributed failure class (classifier prediction when a
	// classifier is configured, the ticket label otherwise); zero for
	// anomaly alerts with no triggering ticket.
	Cause model.FailureClass `json:"cause,omitempty"`

	Outcome   string    `json:"outcome,omitempty"`
	ClearedAt time.Time `json:"clearedAt,omitempty"`
	LeadDays  float64   `json:"leadDays,omitempty"`
}

// seriesState is the O(1) anomaly-detector state for one monitoring
// series: an EWMA level, an EWMA absolute-residual scale and a two-sided
// CUSUM. It needs no history, so sample gaps cannot invalidate it.
type seriesState struct {
	n         int
	mean, dev float64
	pos, neg  float64
}

// machineState is one machine's detector state.
type machineState struct {
	id      model.MachineID
	kind    model.MachineKind
	system  model.System
	cap     model.Capacity
	created time.Time
	host    model.MachineID

	// recent holds the machine's most recent MinCrashes crash times.
	recent  []time.Time
	crashes int

	series [4]seriesState // indexed by monitordb.Metric - 1

	active *Alert
}

// Detector is the online detection layer. The engine calls the Observe*
// hooks under its own lock; the HTTP surface calls Snapshot concurrently
// — the detector serializes internally.
type Detector struct {
	mu  sync.Mutex
	cfg Config
	reg *obs.Registry

	machines map[model.MachineID]*machineState
	hostVMs  map[model.MachineID]int
	// refHosts tracks the host assignments of replica VMs — machines a
	// shard router owns elsewhere — so hostVMs counts consolidation over
	// the whole fleet while the machine inventory (and every per-machine
	// statistic) stays shard-disjoint.
	refHosts map[model.MachineID]model.MachineID

	firstEvent time.Time
	watermark  time.Time

	nextID       int64
	activeCount  int
	crashTickets int64

	// nextDeadline is a lower bound on the earliest active alert's
	// deadline: no alert can expire until the watermark passes it, so
	// Advance skips its machine scan until then. Lowered on every raise,
	// recomputed by each scan, never persisted — zero (a fresh or restored
	// detector) forces the next Advance to scan.
	nextDeadline time.Time
	// due mirrors nextDeadline for Due's lock-free readers: its Unix
	// second, or math.MaxInt64 (never) while no alert is active. Raises,
	// clears and scans keep it current.
	due atomic.Int64

	raisedBySource map[string]int64
	confirmed      int64
	expired        int64

	leadDays sketch.Moments
	leadQ    *sketch.Quantile

	recent  []Alert // cleared ring, oldest first
	scratch textmine.PredictScratch
	imgIDs  []model.MachineID // WriteState's reused key buffer
}

// New creates a detector; zero-value config fields take the calibrated
// defaults.
func New(cfg Config) *Detector {
	d := &Detector{
		cfg:            cfg.withDefaults(),
		machines:       make(map[model.MachineID]*machineState),
		hostVMs:        make(map[model.MachineID]int),
		raisedBySource: make(map[string]int64),
		leadQ:          sketch.NewQuantile(sketch.DefaultK),
	}
	d.due.Store(math.MaxInt64)
	return d
}

// Config returns the detector's effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// leadBucketsMS are the detect.lead_time_ms histogram bounds: one hour
// through the default horizon.
var leadBucketsMS = []float64{
	3.6e6,     // 1h
	2.16e7,    // 6h
	8.64e7,    // 1d
	1.728e8,   // 2d
	3.456e8,   // 4d
	6.048e8,   // 7d
	1.2096e9,  // 14d
	2.592e9,   // 30d
	5.184e9,   // 60d
	1.0368e10, // 120d
}

// Instrument attaches a metrics registry; confirmation lead times feed
// its detect.lead_time_ms histogram as they happen.
func (d *Detector) Instrument(r *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reg = r
}

func (d *Detector) stateLocked(id model.MachineID) *machineState {
	st := d.machines[id]
	if st == nil {
		st = &machineState{id: id}
		d.machines[id] = st
	}
	return st
}

func (d *Detector) noteTimeLocked(t time.Time) {
	if t.IsZero() {
		return
	}
	if d.firstEvent.IsZero() || t.Before(d.firstEvent) {
		d.firstEvent = t
	}
	if t.After(d.watermark) {
		d.watermark = t
	}
}

// ObserveMachine records a machine's inventory facts (kind, capacity,
// creation date) for the risk scorer and alert payloads.
func (d *Detector) ObserveMachine(m *model.Machine) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropRefHostLocked(m.ID)
	st := d.stateLocked(m.ID)
	st.kind = m.Kind
	st.system = m.System
	st.cap = m.Capacity
	st.created = m.Created
	if m.HostID != "" {
		st.host = m.HostID
		d.hostVMs[m.HostID]++
	}
}

// ObserveMachineRef records a replica machine's host assignment: the
// machine lives on another shard, but its contribution to the host's
// consolidation count must still be visible to this shard's risk scorer.
// No machine state is created — replicas stay out of the inventory, the
// machine-weeks denominator and every per-machine rule.
func (d *Detector) ObserveMachineRef(m *model.Machine) {
	if m.HostID == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.refHosts[m.ID]; ok {
		if prev == m.HostID {
			return
		}
		d.hostVMs[prev]--
	}
	if d.refHosts == nil {
		d.refHosts = make(map[model.MachineID]model.MachineID)
	}
	d.refHosts[m.ID] = m.HostID
	d.hostVMs[m.HostID]++
}

// ObservePlacementRef is ObservePlacement for a replica VM: it applies the
// same host transition to hostVMs through the refHosts ledger instead of
// the machine's own state.
func (d *Detector) ObservePlacementRef(vm, host model.MachineID, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteTimeLocked(at)
	if prev, ok := d.refHosts[vm]; ok {
		if prev == host {
			return
		}
		if prev != "" {
			d.hostVMs[prev]--
		}
	}
	if d.refHosts == nil {
		d.refHosts = make(map[model.MachineID]model.MachineID)
	}
	d.refHosts[vm] = host
	if host != "" {
		d.hostVMs[host]++
	}
}

// dropRefHostLocked clears any replica-side host accounting for a machine
// the detector is about to observe as a primary — the promotion case a
// direct (router-less) user can produce.
func (d *Detector) dropRefHostLocked(id model.MachineID) {
	if prev, ok := d.refHosts[id]; ok {
		if prev != "" {
			d.hostVMs[prev]--
		}
		delete(d.refHosts, id)
	}
}

// ObservePlacement tracks a VM's current host so the risk scorer can read
// the live consolidation level.
func (d *Detector) ObservePlacement(vm, host model.MachineID, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteTimeLocked(at)
	d.dropRefHostLocked(vm)
	st := d.stateLocked(vm)
	if st.host == host {
		return
	}
	if st.host != "" {
		d.hostVMs[st.host]--
	}
	st.host = host
	if host != "" {
		d.hostVMs[host]++
	}
}

// ObserveTicket folds one in-window crash ticket: it resolves the
// machine's active alert (confirm inside the horizon, expire past it) and
// then applies the recurrence raise rule to the machine's updated crash
// history. isCrash/class are the engine's effective labels (classifier
// predictions in live mode, ticket truth otherwise); non-crash tickets
// must not be passed.
func (d *Detector) ObserveTicket(t *model.Ticket, class model.FailureClass) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteTimeLocked(t.Opened)
	d.crashTickets++
	st := d.stateLocked(t.ServerID)

	if a := st.active; a != nil {
		if t.Opened.After(a.Deadline) {
			d.clearLocked(st, OutcomeExpired, a.Deadline)
		} else {
			d.clearLocked(st, OutcomeConfirmed, t.Opened)
		}
	}

	st.crashes++
	st.recent = append(st.recent, t.Opened)
	if len(st.recent) > d.cfg.MinCrashes {
		copy(st.recent, st.recent[1:])
		st.recent = st.recent[:d.cfg.MinCrashes]
	}
	if st.active == nil && len(st.recent) >= d.cfg.MinCrashes &&
		!t.Opened.Before(st.recent[0]) && t.Opened.Sub(st.recent[0]) <= d.cfg.BurstWindow {
		cause := class
		if d.cfg.Classifier != nil {
			if pred := d.cfg.Classifier.PredictWith(&d.scratch, t.Description+" "+t.Resolution); pred > 0 {
				cause = model.FailureClass(pred)
			}
		}
		d.raiseLocked(st, t.Opened, SourceRecurrence, "", cause)
	}
}

// ObserveSample folds one monitoring sample into the machine's per-series
// EWMA/CUSUM state, raising an anomaly alert on a CUSUM trip.
func (d *Detector) ObserveSample(id model.MachineID, metric monitordb.Metric, at time.Time, v float64) {
	mi := int(metric) - 1
	if mi < 0 || mi >= 4 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteTimeLocked(at)
	st := d.stateLocked(id)
	s := &st.series[mi]

	if s.n == 0 {
		s.mean = v
		s.n = 1
		return
	}
	resid := v - s.mean
	if s.n >= warmup {
		// The EWMA tracks mean absolute deviation; 1.2533 = √(π/2)
		// rescales it to σ units for a Gaussian so the CUSUM drift and
		// threshold read in standard deviations.
		scale := s.dev * 1.2533
		if scale < 1e-9 {
			scale = 1e-9
		}
		r := resid / scale
		if r > residualClamp {
			r = residualClamp
		} else if r < -residualClamp {
			r = -residualClamp
		}
		s.pos += r - cusumDrift
		if s.pos < 0 {
			s.pos = 0
		}
		s.neg += -r - cusumDrift
		if s.neg < 0 {
			s.neg = 0
		}
		if s.pos > cusumThreshold || s.neg > cusumThreshold {
			s.pos, s.neg = 0, 0
			if st.active == nil {
				d.raiseLocked(st, at, SourceAnomaly, metric.String(), 0)
			}
		}
		// Winsorize the smoothing update at the clamp: a shift far beyond
		// the current scale must not be swallowed into the level/scale
		// estimates faster than the CUSUM can accumulate it. On in-band
		// residuals the cap never binds.
		if lim := residualClamp * scale; resid > lim {
			resid = lim
		} else if resid < -lim {
			resid = -lim
		}
	}
	// Update level and scale after the residual so a genuine shift must
	// out-run the smoothing to trip.
	abs := resid
	if abs < 0 {
		abs = -abs
	}
	s.mean += ewmaAlpha * resid
	s.dev += ewmaAlpha * (abs - s.dev)
	s.n++
}

// Advance moves the detector's watermark, expiring active alerts whose
// horizon has fully elapsed (see Expire). The engine calls it for every
// "advance" heartbeat, so the detector's clock — its snapshot watermark
// and machine-weeks — reaches the stream's.
func (d *Detector) Advance(watermark time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteTimeLocked(watermark)
	d.expireLocked(d.watermark)
}

// Due reports whether the watermark t may have passed an active alert's
// deadline — whether Expire(t) can have anything to do. It reads one
// atomic and takes no lock, so the engine asks on every watermark move;
// a true answer is conservative (Expire re-checks exactly).
func (d *Detector) Due(t time.Time) bool { return t.Unix() >= d.due.Load() }

// Expire expires the active alerts whose deadline lies before t without
// moving the detector's clock. Expiry order is deterministic (by raise
// time, then machine ID) regardless of map iteration. The engine calls it
// per event, before the event is observed, whenever Due says the event's
// watermark may have passed a deadline, so which alerts are active when an
// event arrives depends on the events alone, not on how they were batched.
func (d *Detector) Expire(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(t)
}

// expireLocked runs the machine scan only once t has passed nextDeadline;
// before that no deadline can be behind it, so the skip expires exactly
// what a scan would (nothing).
func (d *Detector) expireLocked(t time.Time) {
	if d.activeCount == 0 || !t.After(d.nextDeadline) {
		return
	}
	var due []*machineState
	var next time.Time
	for _, st := range d.machines {
		a := st.active
		switch {
		case a == nil:
		case a.Deadline.Before(t):
			due = append(due, st)
		case next.IsZero() || a.Deadline.Before(next):
			next = a.Deadline
		}
	}
	d.nextDeadline = next
	sortStates(due)
	for _, st := range due {
		d.clearLocked(st, OutcomeExpired, st.active.Deadline)
	}
	d.storeDueLocked()
}

// storeDueLocked publishes nextDeadline to Due.
func (d *Detector) storeDueLocked() {
	if d.activeCount == 0 {
		d.due.Store(math.MaxInt64)
		return
	}
	d.due.Store(d.nextDeadline.Unix())
}

// sortStates orders machine states by their active alert's raise time,
// breaking ties on machine ID.
func sortStates(sts []*machineState) {
	for i := 1; i < len(sts); i++ {
		for j := i; j > 0 && alertBefore(sts[j].active, sts[j-1].active); j-- {
			sts[j], sts[j-1] = sts[j-1], sts[j]
		}
	}
}

func alertBefore(a, b *Alert) bool {
	if !a.RaisedAt.Equal(b.RaisedAt) {
		return a.RaisedAt.Before(b.RaisedAt)
	}
	return a.Machine < b.Machine
}

func (d *Detector) raiseLocked(st *machineState, at time.Time, source, metric string, cause model.FailureClass) {
	d.nextID++
	a := &Alert{
		ID:       d.nextID,
		Machine:  st.id,
		Kind:     st.kind,
		System:   st.system,
		Source:   source,
		Metric:   metric,
		RaisedAt: at,
		Deadline: at.Add(d.cfg.Horizon),
		Crashes:  st.crashes,
		Risk:     d.riskLocked(st, at),
		Cause:    cause,
	}
	st.active = a
	if d.activeCount == 0 || a.Deadline.Before(d.nextDeadline) {
		d.nextDeadline = a.Deadline
	}
	d.activeCount++
	d.storeDueLocked()
	d.raisedBySource[source]++
}

func (d *Detector) clearLocked(st *machineState, outcome string, at time.Time) {
	a := st.active
	st.active = nil
	d.activeCount--
	d.storeDueLocked()
	a.Outcome = outcome
	a.ClearedAt = at
	if outcome == OutcomeConfirmed {
		d.confirmed++
		lead := at.Sub(a.RaisedAt)
		a.LeadDays = lead.Hours() / 24
		d.leadDays.Add(a.LeadDays)
		d.leadQ.Add(a.LeadDays)
		if d.reg != nil {
			d.reg.Histogram("detect.lead_time_ms", leadBucketsMS...).
				Observe(float64(lead) / float64(time.Millisecond))
		}
	} else {
		d.expired++
	}
	d.recent = append(d.recent, *a)
	if over := len(d.recent) - ringSize; over > 0 {
		copy(d.recent, d.recent[over:])
		d.recent = d.recent[:ringSize]
	}
}

// Totals is a cheap counter snapshot: the values Publish exposes as the
// detect.* families, and a sharded coordinator sums (Add) into fleet-wide
// ones without assembling full Snapshots.
type Totals struct {
	Raised        int64
	RaisedAnomaly int64
	Confirmed     int64
	Expired       int64
	CrashTickets  int64
	Active        int
	Machines      int
}

// Totals returns the detector's headline counters.
func (d *Detector) Totals() Totals {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totalsLocked()
}

func (d *Detector) totalsLocked() Totals {
	return Totals{
		Raised:        d.raisedBySource[SourceRecurrence] + d.raisedBySource[SourceAnomaly],
		RaisedAnomaly: d.raisedBySource[SourceAnomaly],
		Confirmed:     d.confirmed,
		Expired:       d.expired,
		CrashTickets:  d.crashTickets,
		Active:        d.activeCount,
		Machines:      len(d.machines),
	}
}

// Add sums u into t.
func (t *Totals) Add(u Totals) {
	t.Raised += u.Raised
	t.RaisedAnomaly += u.RaisedAnomaly
	t.Confirmed += u.Confirmed
	t.Expired += u.Expired
	t.CrashTickets += u.CrashTickets
	t.Active += u.Active
	t.Machines += u.Machines
}

// Publish pushes t into the registry as the detect.* families: gauges are
// set outright, and the detect.alerts_raised and detect.alerts_cleared
// counters advance to t's running totals.
func (t Totals) Publish(r *obs.Registry) {
	r.Set("detect.alerts_active", float64(t.Active))
	r.Set("detect.machines", float64(t.Machines))
	r.Counter("detect.alerts_raised").AdvanceTo(t.Raised)
	r.Counter("detect.alerts_cleared").AdvanceTo(t.Confirmed + t.Expired)
	r.Set("detect.alerts_confirmed", float64(t.Confirmed))
	r.Set("detect.alerts_expired", float64(t.Expired))
	r.Set("detect.alerts_raised_anomaly", float64(t.RaisedAnomaly))
}

// MetricHelp is the /metrics HELP text of the detect.* families.
var MetricHelp = map[string]string{
	"detect.alerts_active":         "failure alerts currently raised by the online detector",
	"detect.alerts_raised":         "failure alerts raised since start, any source",
	"detect.alerts_cleared":        "failure alerts cleared since start (confirmed or expired)",
	"detect.alerts_confirmed":      "alerts confirmed by a crash ticket inside the horizon",
	"detect.alerts_expired":        "alerts expired without a crash (false alarms)",
	"detect.alerts_raised_anomaly": "alerts raised by the CUSUM usage-anomaly detector",
	"detect.machines":              "machines the online detector is tracking",
	"detect.lead_time_ms":          "milliseconds from alert raise to the confirming crash ticket",
}

// Publish pushes the detector's detect.* families into the registry; the
// engine's registry collector calls it when the registry is read.
func (d *Detector) Publish(r *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.totalsLocked().Publish(r)
}

// Snapshot is the queryable detection state: the active alerts, the
// recently-cleared ring (most recent first) and the confirmation
// accounting the scoreboard grades.
type Snapshot struct {
	Watermark    time.Time `json:"watermark"`
	HorizonDays  float64   `json:"horizonDays"`
	Machines     int       `json:"machines"`
	MachineWeeks float64   `json:"machineWeeks"`
	CrashTickets int64     `json:"crashTickets"`

	Raised        int64 `json:"raised"`
	RaisedAnomaly int64 `json:"raisedAnomaly"`
	Confirmed     int64 `json:"confirmed"`
	Expired       int64 `json:"expired"`
	ActiveCount   int   `json:"activeCount"`

	LeadDaysMean float64 `json:"leadDaysMean"`
	LeadDaysP50  float64 `json:"leadDaysP50"`
	LeadDaysP95  float64 `json:"leadDaysP95"`

	Active []Alert `json:"active"`
	Recent []Alert `json:"recent"`
}

// leadRanks are the lead-time quantiles a snapshot reads (p50, p95).
var leadRanks = []float64{0.5, 0.95}

// Snapshot assembles the current detection state. Safe to call
// concurrently with the engine's Observe* hooks.
func (d *Detector) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Snapshot{
		Watermark:     d.watermark,
		HorizonDays:   d.cfg.Horizon.Hours() / 24,
		Machines:      len(d.machines),
		CrashTickets:  d.crashTickets,
		Raised:        d.raisedBySource[SourceRecurrence] + d.raisedBySource[SourceAnomaly],
		RaisedAnomaly: d.raisedBySource[SourceAnomaly],
		Confirmed:     d.confirmed,
		Expired:       d.expired,
		ActiveCount:   d.activeCount,
	}
	if !d.firstEvent.IsZero() && d.watermark.After(d.firstEvent) {
		s.MachineWeeks = float64(len(d.machines)) * d.watermark.Sub(d.firstEvent).Hours() / (24 * 7)
	}
	if d.leadDays.N() > 0 {
		s.LeadDaysMean = d.leadDays.Mean()
		var q [2]float64
		d.leadQ.Quantiles(leadRanks, q[:])
		s.LeadDaysP50, s.LeadDaysP95 = q[0], q[1]
	}
	var active []*machineState
	for _, st := range d.machines {
		if st.active != nil {
			active = append(active, st)
		}
	}
	sortStates(active)
	s.Active = make([]Alert, 0, len(active))
	for _, st := range active {
		s.Active = append(s.Active, *st.active)
	}
	s.Recent = make([]Alert, 0, len(d.recent))
	for i := len(d.recent) - 1; i >= 0; i-- {
		s.Recent = append(s.Recent, d.recent[i])
	}
	return s
}
