package detect

import (
	"math"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
)

var t0 = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func day(n int) time.Time { return t0.Add(time.Duration(n) * 24 * time.Hour) }

func crash(d *Detector, id model.MachineID, at time.Time) {
	d.ObserveTicket(&model.Ticket{ServerID: id, Opened: at, IsCrash: true, Class: model.FailureClass(1)}, 1)
}

func newTestDetector() *Detector {
	d := New(Config{})
	d.ObserveMachine(&model.Machine{ID: "m1", Kind: model.PM, System: 1, Created: t0.AddDate(-2, 0, 0)})
	return d
}

// TestRecurrenceRaiseConfirm walks the core alert lifecycle: a burst of
// MinCrashes crashes inside BurstWindow raises, the next crash inside the
// horizon confirms with the right lead time.
func TestRecurrenceRaiseConfirm(t *testing.T) {
	d := newTestDetector()
	for i := 0; i < DefaultMinCrashes; i++ {
		crash(d, "m1", day(i*7)) // days 0,7,14,21 — span 21d ≤ 30d
	}
	s := d.Snapshot()
	if s.Raised != 1 || s.ActiveCount != 1 {
		t.Fatalf("raised=%d active=%d after a 4-in-21d burst, want 1/1", s.Raised, s.ActiveCount)
	}
	a := s.Active[0]
	if a.Source != SourceRecurrence || a.Machine != "m1" || !a.RaisedAt.Equal(day(21)) {
		t.Errorf("unexpected alert %+v", a)
	}
	if a.Crashes != DefaultMinCrashes {
		t.Errorf("alert crashes=%d, want %d", a.Crashes, DefaultMinCrashes)
	}
	if a.Risk < 0 || a.Risk > 1 {
		t.Errorf("risk %v outside [0,1]", a.Risk)
	}

	// Next crash 10 days later: confirms, lead 10 days, and immediately
	// re-raises (the last 4 crashes now span days 7..31 ≤ 30d).
	crash(d, "m1", day(31))
	s = d.Snapshot()
	if s.Confirmed != 1 {
		t.Fatalf("confirmed=%d, want 1", s.Confirmed)
	}
	if len(s.Recent) != 1 || s.Recent[0].Outcome != OutcomeConfirmed {
		t.Fatalf("cleared ring %+v, want one confirmed alert", s.Recent)
	}
	if got := s.Recent[0].LeadDays; math.Abs(got-10) > 1e-9 {
		t.Errorf("lead %.4f days, want 10", got)
	}
	if s.ActiveCount != 1 {
		t.Errorf("active=%d after confirm, want 1 (re-raised on the confirming crash)", s.ActiveCount)
	}
}

// TestRecurrenceNoRaiseSpreadOut: the same number of crashes spread past
// the burst window never raises.
func TestRecurrenceNoRaiseSpreadOut(t *testing.T) {
	d := newTestDetector()
	for i := 0; i < 6; i++ {
		crash(d, "m1", day(i*45))
	}
	if s := d.Snapshot(); s.Raised != 0 {
		t.Errorf("raised=%d for crashes 45 days apart, want 0", s.Raised)
	}
}

// TestAlertExpiry: an unconfirmed alert expires when the watermark passes
// its deadline, and a later crash past the deadline expires (not
// confirms) a still-active alert.
func TestAlertExpiry(t *testing.T) {
	d := newTestDetector()
	for i := 0; i < DefaultMinCrashes; i++ {
		crash(d, "m1", day(i))
	}
	if s := d.Snapshot(); s.ActiveCount != 1 {
		t.Fatalf("active=%d, want 1", s.ActiveCount)
	}
	d.Advance(day(3).Add(DefaultHorizon - time.Hour))
	if s := d.Snapshot(); s.ActiveCount != 1 {
		t.Fatal("alert expired before its deadline")
	}
	d.Advance(day(3).Add(DefaultHorizon + time.Hour))
	s := d.Snapshot()
	if s.ActiveCount != 0 || s.Expired != 1 {
		t.Fatalf("active=%d expired=%d after the horizon elapsed, want 0/1", s.ActiveCount, s.Expired)
	}
	if s.Recent[0].Outcome != OutcomeExpired {
		t.Errorf("outcome %q, want expired", s.Recent[0].Outcome)
	}
	if !s.Recent[0].ClearedAt.Equal(day(3).Add(DefaultHorizon)) {
		t.Errorf("expired alert cleared at %v, want its deadline", s.Recent[0].ClearedAt)
	}
}

// TestLateCrashExpiresFirst: a crash arriving after the active alert's
// deadline resolves it as expired, then counts toward a fresh burst.
func TestLateCrashExpiresFirst(t *testing.T) {
	d := newTestDetector()
	for i := 0; i < DefaultMinCrashes; i++ {
		crash(d, "m1", day(i))
	}
	crash(d, "m1", day(3).Add(DefaultHorizon+24*time.Hour))
	s := d.Snapshot()
	if s.Confirmed != 0 || s.Expired != 1 {
		t.Fatalf("confirmed=%d expired=%d for a past-deadline crash, want 0/1", s.Confirmed, s.Expired)
	}
}

// TestAnomalyTrip: a stationary series stays silent; a sustained level
// shift trips the CUSUM and raises an anomaly alert naming the metric.
func TestAnomalyTrip(t *testing.T) {
	d := newTestDetector()
	// Deterministic stationary wiggle around 40 for 3x warmup.
	for i := 0; i < 3*warmup; i++ {
		v := 40.0
		if i%2 == 0 {
			v = 42
		}
		d.ObserveSample("m1", monitordb.MetricCPUUtil, day(i), v)
	}
	if s := d.Snapshot(); s.Raised != 0 {
		t.Fatalf("raised=%d on a stationary series, want 0", s.Raised)
	}
	// Sustained shift far beyond the clamp: trips within a few samples.
	for i := 0; i < 6; i++ {
		d.ObserveSample("m1", monitordb.MetricCPUUtil, day(100+i), 95)
	}
	s := d.Snapshot()
	if s.RaisedAnomaly != 1 {
		t.Fatalf("anomaly alerts=%d after a sustained spike, want 1", s.RaisedAnomaly)
	}
	if a := s.Active[0]; a.Source != SourceAnomaly || a.Metric != "cpu_util" {
		t.Errorf("alert %+v, want anomaly on cpu_util", a)
	}
}

// TestAnomalyStateSurvivesGaps: the per-series state is O(1), so a long
// sample gap (the columnar store would have evicted the window) neither
// resets nor trips the detector.
func TestAnomalyStateSurvivesGaps(t *testing.T) {
	d := newTestDetector()
	for i := 0; i < 2*warmup; i++ {
		d.ObserveSample("m1", monitordb.MetricMemUtil, day(i), 50+float64(i%3))
	}
	// Two-year gap, then the same regime: still silent.
	for i := 0; i < 2*warmup; i++ {
		d.ObserveSample("m1", monitordb.MetricMemUtil, day(800+i), 50+float64(i%3))
	}
	if s := d.Snapshot(); s.Raised != 0 {
		t.Errorf("raised=%d across a sample gap in a stationary series, want 0", s.Raised)
	}
}

// TestDeterministicExpiryOrder: alerts expiring in the same Advance land
// in the cleared ring in (raise time, machine) order regardless of map
// iteration.
func TestDeterministicExpiryOrder(t *testing.T) {
	d := New(Config{})
	ids := []model.MachineID{"z", "a", "m", "b", "q"}
	for _, id := range ids {
		d.ObserveMachine(&model.Machine{ID: id, Kind: model.VM})
		for i := 0; i < DefaultMinCrashes; i++ {
			crash(d, id, day(i))
		}
	}
	d.Advance(day(3).Add(DefaultHorizon + time.Hour))
	s := d.Snapshot()
	if s.Expired != int64(len(ids)) {
		t.Fatalf("expired=%d, want %d", s.Expired, len(ids))
	}
	// Same raise time everywhere → clear order is machine ID ascending;
	// Snapshot.Recent is most-recent-first, so the listing reverses it.
	want := []model.MachineID{"z", "q", "m", "b", "a"}
	for i, a := range s.Recent {
		if a.Machine != want[i] {
			t.Fatalf("recent[%d]=%s, want %s (ring %v)", i, a.Machine, want[i], s.Recent)
		}
	}
}

// TestClearedRingBounded: the recently-cleared ring holds the newest
// ringSize alerts.
func TestClearedRingBounded(t *testing.T) {
	d := New(Config{})
	d.ObserveMachine(&model.Machine{ID: "m1", Kind: model.PM})
	for i := 0; i < ringSize+10+DefaultMinCrashes; i++ {
		crash(d, "m1", day(i)) // every crash after the 4th confirms + re-raises
	}
	s := d.Snapshot()
	if len(s.Recent) != ringSize {
		t.Fatalf("ring holds %d alerts, want %d", len(s.Recent), ringSize)
	}
	for i := 1; i < len(s.Recent); i++ {
		if s.Recent[i].ID > s.Recent[i-1].ID {
			t.Fatal("ring not most-recent-first")
		}
	}
}

// TestPublishMetrics: the detect.* families land in the registry with
// delta-correct counters across repeated publishes.
func TestPublishMetrics(t *testing.T) {
	d := newTestDetector()
	reg := obs.NewObserver("test").Metrics()
	d.Instrument(reg)
	for i := 0; i < DefaultMinCrashes; i++ {
		crash(d, "m1", day(i))
	}
	d.Publish(reg)
	d.Publish(reg) // second publish must not double-count the counters
	snap := reg.Snapshot()
	if got := snap["detect.alerts_active"]; got != 1 {
		t.Errorf("detect.alerts_active=%v, want 1", got)
	}
	if got := snap["detect.alerts_raised"]; got != 1 {
		t.Errorf("detect.alerts_raised=%v, want 1", got)
	}
	crash(d, "m1", day(10)) // confirm + re-raise
	d.Publish(reg)
	snap = reg.Snapshot()
	if got := snap["detect.alerts_raised"]; got != 2 {
		t.Errorf("detect.alerts_raised=%v after re-raise, want 2", got)
	}
	if got := snap["detect.alerts_cleared"]; got != 1 {
		t.Errorf("detect.alerts_cleared=%v, want 1", got)
	}
	if got := snap["detect.lead_time_ms.count"]; got != 1 {
		t.Errorf("detect.lead_time_ms.count=%v, want 1", got)
	}
}

// TestScoreBrokenDetector: a detector that never raises fails the
// detect_resolved band, so the -detect-gate exits non-zero instead of
// passing vacuously on 0/0 precision.
func TestScoreBrokenDetector(t *testing.T) {
	d := New(Config{MinCrashes: 1000}) // effectively never raises
	d.ObserveMachine(&model.Machine{ID: "m1", Kind: model.PM})
	for i := 0; i < 20; i++ {
		crash(d, "m1", day(i))
	}
	sb := Score(d.Snapshot())
	if err := sb.Err(); err == nil {
		t.Fatal("scoreboard gate passed a detector that never raised")
	}
	if b := sb.Find("detect_resolved"); b == nil || b.Verdict != "fail" {
		t.Errorf("detect_resolved band %+v, want fail", b)
	}
	if b := sb.Find("detect_precision"); b == nil || b.Verdict != "skip" {
		t.Errorf("detect_precision band %+v, want skip with no resolved alerts", b)
	}
}

// TestScoreHealthy: a snapshot shaped like the canonical studies' passes
// every band.
func TestScoreHealthy(t *testing.T) {
	s := &Snapshot{
		Machines:     1000,
		MachineWeeks: 52000,
		CrashTickets: 500,
		Raised:       8,
		Confirmed:    6,
		Expired:      1,
		ActiveCount:  1,
		LeadDaysP50:  10,
	}
	sb := Score(s)
	if err := sb.Err(); err != nil {
		t.Fatalf("healthy snapshot failed the gate: %v", err)
	}
	if sb.Failed != 0 || sb.Skipped != 0 {
		t.Errorf("failed=%d skipped=%d, want 0/0", sb.Failed, sb.Skipped)
	}
}

// TestConfigDefaults: the zero config takes every calibrated default.
func TestConfigDefaults(t *testing.T) {
	cfg := New(Config{}).Config()
	if cfg.MinCrashes != DefaultMinCrashes || cfg.BurstWindow != DefaultBurstWindow ||
		cfg.Horizon != DefaultHorizon {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	custom := New(Config{Horizon: 24 * time.Hour}).Config()
	if custom.Horizon != 24*time.Hour || custom.MinCrashes != DefaultMinCrashes {
		t.Errorf("override not preserved: %+v", custom)
	}
}
