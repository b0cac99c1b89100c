package detect

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// fullScanAdvance is Advance without the expiry bound: clearing the bound
// first forces the machine scan every call, which is how Advance behaved
// before the bound existed.
func fullScanAdvance(d *Detector, wm time.Time) {
	d.mu.Lock()
	d.nextDeadline = time.Time{}
	d.mu.Unlock()
	d.Advance(wm)
}

func snapshotJSON(t *testing.T, d *Detector) string {
	t.Helper()
	b, err := json.Marshal(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAdvanceExpiryBoundMatchesFullScan drives randomized raise, confirm,
// out-of-order and advance sequences through a detector using the expiry
// bound and one scanning on every Advance, and requires byte-identical
// snapshots after every step: the bound may skip scans, never change what
// expires, when, or in what order. One run per seed is resumed from a
// WriteState/RestoreState image halfway, which starts with no bound.
func TestAdvanceExpiryBoundMatchesFullScan(t *testing.T) {
	// Machines below crashing take crash tickets; the rest only report
	// usage, so their alerts come from the CUSUM and end by expiry.
	const crashing, machines, steps = 12, 16, 1500
	cfg := Config{MinCrashes: 2, BurstWindow: 10 * 24 * time.Hour, Horizon: 6 * 24 * time.Hour}
	for seed := int64(1); seed <= 6; seed++ {
		for _, resume := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/resume=%v", seed, resume), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				fast, ref := New(cfg), New(cfg)
				for i := 0; i < machines; i++ {
					m := &model.Machine{ID: model.MachineID(fmt.Sprintf("m%02d", i)), Kind: model.MachineKind(i%2 + 1), System: 1, Created: t0}
					fast.ObserveMachine(m)
					ref.ObserveMachine(m)
				}
				clock := t0
				var skipped int
				for step := 0; step < steps; step++ {
					if resume && step == steps/2 {
						// Restore over a detector whose own bound lies far
						// ahead: the image must not inherit it.
						restored := New(cfg)
						crash(restored, "x", clock.AddDate(5, 0, 0))
						crash(restored, "x", clock.AddDate(5, 0, 0))
						if err := restoreState(restored, writeState(t, fast)); err != nil {
							t.Fatal(err)
						}
						fast = restored
					}
					id := model.MachineID(fmt.Sprintf("m%02d", rng.Intn(crashing)))
					clock = clock.Add(time.Duration(rng.Intn(36)) * time.Hour)
					at := clock
					if rng.Intn(8) == 0 {
						at = at.Add(-time.Duration(rng.Intn(10*24)) * time.Hour) // late event
					}
					switch op := rng.Intn(10); {
					case op < 4:
						crash(fast, id, at)
						crash(ref, id, at)
					case op < 6:
						// Steady usage, now and then a run of samples far
						// off it that trips the CUSUM: anomaly raises too.
						id = model.MachineID(fmt.Sprintf("m%02d", crashing+rng.Intn(machines-crashing)))
						v, n := 0.2+0.01*rng.Float64(), 1
						if rng.Intn(30) == 0 {
							v, n = 0.9, 4
						}
						for ; n > 0; n-- {
							fast.ObserveSample(id, monitordb.MetricCPUUtil, at, v)
							ref.ObserveSample(id, monitordb.MetricCPUUtil, at, v)
						}
					default:
						fast.mu.Lock()
						before := fast.activeCount > 0 && !clock.After(fast.nextDeadline)
						fast.mu.Unlock()
						if before {
							skipped++
						}
						fast.Advance(clock)
						fullScanAdvance(ref, clock)
					}
					if got, want := snapshotJSON(t, fast), snapshotJSON(t, ref); got != want {
						t.Fatalf("step %d: snapshots diverge\nbound:     %s\nfull scan: %s", step, got, want)
					}
				}
				s := ref.Snapshot()
				if s.Expired == 0 || s.Confirmed == 0 || s.RaisedAnomaly == 0 {
					t.Fatalf("sequence too tame: expired=%d confirmed=%d anomaly=%d", s.Expired, s.Confirmed, s.RaisedAnomaly)
				}
				if skipped == 0 {
					t.Error("no Advance skipped its scan with alerts active")
				}
			})
		}
	}
}
