package dcsim

import (
	"math"
	"testing"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

func TestRepairModelValidate(t *testing.T) {
	good := RepairModel{MeanHours: 10, MedianHours: 2, SigmaCap: 1.5, EscalationProb: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []RepairModel{
		{MeanHours: 1, MedianHours: 2},                     // mean < median
		{MeanHours: 10, MedianHours: 0},                    // zero median
		{MeanHours: 10, MedianHours: 2, EscalationProb: 1}, // prob out of range
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
}

func TestRepairModelPreservesMean(t *testing.T) {
	m := repairModel(80.1, 8.28) // the Table IV hardware calibration
	if math.Abs(m.Mean()-80.1) > 0.01*80.1 {
		t.Fatalf("theoretical mean %v, want 80.1", m.Mean())
	}
	r := xrand.New(11)
	const n = 400000
	var sum float64
	var below float64
	for i := 0; i < n; i++ {
		v := m.Sample(r)
		sum += v
		if v < m.MedianHours+m.TriageHours {
			below++
		}
	}
	mean := sum / n
	// The triage latency adds ~TriageHours on top of the calibrated mean.
	want := 80.1 + 0.4 // triage 0.35 with e^{0.125} jitter mean
	if math.Abs(mean-want) > 0.08*want {
		t.Errorf("sample mean %.1f, want ≈%.1f", mean, want)
	}
	// Median should sit near the calibrated median (plus triage).
	if frac := below / n; frac < 0.40 || frac > 0.65 {
		t.Errorf("fraction below calibrated median+triage = %.3f, want ≈0.5", frac)
	}
}

func TestRepairModelUncappedIsPlainLogNormal(t *testing.T) {
	m := RepairModel{MeanHours: 30, MedianHours: 22.37} // software: sigma below any cap
	mu, sigma, escalation := m.params()
	if escalation != 1 {
		t.Fatalf("escalation %v for uncapped model", escalation)
	}
	if math.Abs(mu-math.Log(22.37)) > 1e-12 {
		t.Errorf("mu %v", mu)
	}
	wantSigma := math.Sqrt(2 * math.Log(30/22.37))
	if math.Abs(sigma-wantSigma) > 1e-12 {
		t.Errorf("sigma %v, want %v", sigma, wantSigma)
	}
}

func TestBoundedParetoBounds(t *testing.T) {
	r := xrand.New(3)
	for i := 0; i < 20000; i++ {
		n := boundedPareto(r, 1.05, 20)
		if n < 1 || n > 20 {
			t.Fatalf("boundedPareto out of [1,20]: %d", n)
		}
	}
}

func TestDrawCauseRespectsMix(t *testing.T) {
	cfg := PaperConfig()
	sc := cfg.Systems[4] // Sys V: power-heavy
	st := &machineState{m: &model.Machine{Kind: model.PM}, lemon: 1}
	r := xrand.New(5)
	counts := make(map[model.FailureClass]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[drawCause(cfg, sc, st, r)]++
	}
	if counts[model.ClassOther] != 0 {
		t.Fatalf("drawCause returned ClassOther %d times", counts[model.ClassOther])
	}
	// Sys V named mix: HW 2, Net 2, SW 12, Power 29, Reboot 26 (sum 71).
	wantPower := 29.0 / 71
	gotPower := float64(counts[model.ClassPower]) / n
	if math.Abs(gotPower-wantPower) > 0.02 {
		t.Errorf("power share %.3f, want %.3f", gotPower, wantPower)
	}
}

func TestDrawCauseVMBias(t *testing.T) {
	cfg := PaperConfig()
	sc := cfg.Systems[2] // Sys III
	r := xrand.New(6)
	rebootShare := func(kind model.MachineKind) float64 {
		st := &machineState{m: &model.Machine{Kind: kind}, lemon: 1}
		count := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if drawCause(cfg, sc, st, r) == model.ClassReboot {
				count++
			}
		}
		return float64(count) / n
	}
	pm, vm := rebootShare(model.PM), rebootShare(model.VM)
	if vm < 2*pm {
		t.Fatalf("VM reboot share %.3f not well above PM %.3f", vm, pm)
	}
}

func TestDrawCauseLemonBias(t *testing.T) {
	cfg := PaperConfig()
	sc := cfg.Systems[0]
	r := xrand.New(7)
	swShare := func(lemon float64) float64 {
		st := &machineState{m: &model.Machine{Kind: model.PM}, lemon: lemon}
		count := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if drawCause(cfg, sc, st, r) == model.ClassSoftware {
				count++
			}
		}
		return float64(count) / n
	}
	if chronic, healthy := swShare(3.0), swShare(0.5); chronic < 1.5*healthy {
		t.Fatalf("chronic machines' software share %.3f not above healthy %.3f", chronic, healthy)
	}
}

func TestLabelForShare(t *testing.T) {
	cfg := PaperConfig()
	sc := cfg.Systems[2] // Sys III: other = 68%
	r := xrand.New(8)
	other := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if labelFor(model.ClassSoftware, sc, r) == model.ClassOther {
			other++
		}
	}
	got := float64(other) / n
	if math.Abs(got-0.68) > 0.02 {
		t.Fatalf("other-label share %.3f, want 0.68", got)
	}
}

func TestInfrastructureCause(t *testing.T) {
	want := map[model.FailureClass]bool{
		model.ClassPower:    true,
		model.ClassHardware: true,
		model.ClassNetwork:  true,
		model.ClassSoftware: false,
		model.ClassReboot:   false,
		model.ClassOther:    false,
	}
	for class, expect := range want {
		if infrastructureCause(class) != expect {
			t.Errorf("infrastructureCause(%v) != %v", class, expect)
		}
	}
}

func TestConsolidationLevelMix(t *testing.T) {
	cfg := tinyConfig()
	cfg.Systems[0].VMs = 2000
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count VMs per box; the share of VMs on big boxes (>=16) should
	// dominate, per the §VI.A mix.
	perBox := make(map[model.MachineID]int)
	for _, m := range out.Data.Machines {
		if m.Kind == model.VM && m.System == model.SysI {
			perBox[m.HostID]++
		}
	}
	big := 0
	total := 0
	for _, n := range perBox {
		total += n
		if n >= 12 {
			big += n
		}
	}
	share := float64(big) / float64(total)
	if share < 0.40 {
		t.Fatalf("share of VMs on dense boxes %.2f, want ≳0.6", share)
	}
}

func TestUsageProfilesInRange(t *testing.T) {
	cfg := tinyConfig()
	systems := buildTopology(cfg, nil)
	for _, ss := range systems {
		for _, st := range append(append([]*machineState{}, ss.pms...), ss.vms...) {
			if st.cpuUtil <= 0 || st.cpuUtil > 100 {
				t.Fatalf("cpuUtil %v", st.cpuUtil)
			}
			if st.memUtil <= 0 || st.memUtil > 100 {
				t.Fatalf("memUtil %v", st.memUtil)
			}
			if st.netKbps < 2 || st.netKbps > 8192 {
				t.Fatalf("netKbps %v", st.netKbps)
			}
		}
	}
}

func TestPMMemUtilSkewsHigh(t *testing.T) {
	// §V.B: the number of PMs increases with memory utilization; the
	// number of VMs decreases.
	cfg := tinyConfig()
	systems := buildTopology(cfg, nil)
	var pmHigh, pmN, vmLow, vmN int
	for _, ss := range systems {
		for _, st := range ss.pms {
			pmN++
			if st.memUtil > 50 {
				pmHigh++
			}
		}
		for _, st := range ss.vms {
			vmN++
			if st.memUtil <= 20 {
				vmLow++
			}
		}
	}
	if frac := float64(pmHigh) / float64(pmN); frac < 0.5 {
		t.Errorf("PM memory utilization >50%% share %.2f, want majority", frac)
	}
	if frac := float64(vmLow) / float64(vmN); frac < 0.5 {
		t.Errorf("VM memory utilization <=20%% share %.2f, want majority", frac)
	}
}

func TestAppGroupsKindHomogeneous(t *testing.T) {
	cfg := tinyConfig()
	systems := buildTopology(cfg, nil)
	for _, ss := range systems {
		kinds := make(map[int]model.MachineKind)
		for _, st := range append(append([]*machineState{}, ss.pms...), ss.vms...) {
			if k, ok := kinds[st.appGroup]; ok && k != st.m.Kind {
				t.Fatalf("app group %d mixes %v and %v", st.appGroup, k, st.m.Kind)
			}
			kinds[st.appGroup] = st.m.Kind
		}
	}
}

func TestVictimEventsFilters(t *testing.T) {
	cfg := tinyConfig()
	cfg.Spatial.PMVictimSkipProb = 1.0 // PMs always escape infrastructure blasts
	rng := xrand.New(11)

	obsStart := cfg.Observation.Start
	mkState := func(id string, kind model.MachineKind, rate float64) *machineState {
		return &machineState{
			m:          &model.Machine{ID: model.MachineID(id), Kind: kind, Created: obsStart.AddDate(-1, 0, 0)},
			weeklyRate: rate,
		}
	}
	trigger := event{
		st:    mkState("trigger", model.VM, 1),
		t:     obsStart.AddDate(0, 6, 0),
		cause: model.ClassPower,
		label: model.ClassPower,
	}
	pool := []*machineState{
		mkState("pm", model.PM, 1),       // skipped: PM + infrastructure + skip prob 1
		mkState("deadrate", model.VM, 0), // skipped: zero rate
		mkState("vm-ok", model.VM, 1),    // eligible
		mkState("unborn", model.VM, 1),   // skipped: created after the trigger
	}
	pool[3].m.Created = trigger.t.AddDate(0, 1, 0)

	victims := victimEvents(cfg, trigger, pool, 10, rng)
	if len(victims) != 1 || victims[0].st.m.ID != "vm-ok" {
		ids := make([]model.MachineID, 0, len(victims))
		for _, v := range victims {
			ids = append(ids, v.st.m.ID)
		}
		t.Fatalf("victims = %v, want [vm-ok]", ids)
	}
	if victims[0].cause != trigger.cause || victims[0].label != trigger.label {
		t.Fatal("victim did not inherit the trigger's cause/label")
	}
}

func TestMassEventsDisabled(t *testing.T) {
	cfg := tinyConfig() // MassEventsPerYear = 0
	rng := xrand.New(12)
	systems := buildTopology(cfg, nil)
	calibrateRates(cfg, systems[0])
	if got := massEvents(cfg, systems[0], rng); got != nil {
		t.Fatalf("mass events generated despite zero rate: %d", len(got))
	}
}

func TestCalibrationHitsKindTargets(t *testing.T) {
	// With spatial coupling and recurrence disabled, the generated event
	// counts should match the configured targets closely.
	cfg := tinyConfig()
	cfg.Spatial.Enabled = false
	cfg.Recurrence.PMProb = 0
	cfg.Recurrence.VMProb = 0
	sums := map[model.MachineKind]float64{}
	const rounds = 5
	for seed := uint64(0); seed < rounds; seed++ {
		cfg.Seed = 100 + seed
		out, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range out.Data.Tickets {
			if !tk.IsCrash || tk.System != model.SysI {
				continue
			}
			if m := out.Data.Machine(tk.ServerID); m != nil {
				sums[m.Kind]++
			}
		}
	}
	sc := cfg.Systems[0]
	wantPM := sc.crashTickets() * sc.PMCrashShare
	wantVM := sc.crashTickets() * (1 - sc.PMCrashShare)
	gotPM := sums[model.PM] / rounds
	gotVM := sums[model.VM] / rounds
	if math.Abs(gotPM-wantPM) > 0.2*wantPM {
		t.Errorf("PM crashes %.1f, want ≈%.1f", gotPM, wantPM)
	}
	if math.Abs(gotVM-wantVM) > 0.25*wantVM {
		t.Errorf("VM crashes %.1f, want ≈%.1f", gotVM, wantVM)
	}
}
