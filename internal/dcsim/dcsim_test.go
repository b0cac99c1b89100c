package dcsim

import (
	"math"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

func TestCurveAt(t *testing.T) {
	c := Curve{{1, 0.5}, {4, 1.0}, {16, 2.0}}
	cases := []struct{ x, want float64 }{
		{0, 0.5}, {1, 0.5}, {3, 0.5}, {4, 1.0}, {10, 1.0}, {16, 2.0}, {100, 2.0},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := Curve(nil).At(5); got != 1 {
		t.Errorf("empty curve At = %v, want 1", got)
	}
	if got := Flat().At(123); got != 1 {
		t.Errorf("Flat().At = %v", got)
	}
}

func TestExpectedExtraMatchesMonteCarlo(t *testing.T) {
	fo := FanOut{TriggerProb: 1, TailAlpha: 1.05, MaxServers: 20}
	want := fo.expectedExtra()
	r := xrand.New(9)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(boundedPareto(r, fo.TailAlpha, fo.MaxServers))
	}
	got := sum / n
	if math.Abs(got-want) > 0.03*want {
		t.Fatalf("expectedExtra=%v but Monte Carlo=%v", want, got)
	}
}

func TestExpectedExtraZeroTrigger(t *testing.T) {
	fo := FanOut{TriggerProb: 0, TailAlpha: 1.5, MaxServers: 10}
	if got := fo.expectedExtra(); got != 0 {
		t.Fatalf("expectedExtra = %v", got)
	}
}

func TestPaperConfigValid(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no systems", func(c *Config) { c.Systems = nil }},
		{"empty window", func(c *Config) { c.Observation.End = c.Observation.Start }},
		{"epoch after start", func(c *Config) { c.MonitorEpoch = c.Observation.Start.AddDate(0, 1, 0) }},
		{"negative population", func(c *Config) { c.Systems[0].PMs = -1 }},
		{"share out of range", func(c *Config) { c.Systems[0].CrashShare = 1.5 }},
		{"zero heterogeneity", func(c *Config) { c.HeterogeneityShapePM = 0 }},
		{"zero lag shape", func(c *Config) { c.Recurrence.LagShape = 0 }},
		{"missing repair", func(c *Config) { delete(c.Repair, model.ClassReboot) }},
	}
	for _, m := range mutations {
		cfg := PaperConfig()
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
}

// tinyConfig is a fast two-system configuration for generator tests.
func tinyConfig() Config {
	cfg := PaperConfig()
	cfg.Systems = []SystemConfig{
		{
			System: model.SysI, PMs: 60, VMs: 150,
			AllTickets: 900, CrashShare: 0.08, PMCrashShare: 0.6,
			ClassMix: cfg.Systems[0].ClassMix,
		},
		{
			System: model.SysII, PMs: 80, VMs: 10,
			AllTickets: 700, CrashShare: 0.02, PMCrashShare: 1.0,
			ClassMix: cfg.Systems[1].ClassMix,
		},
	}
	// Mass events are calibrated for paper-scale systems; on a tiny system
	// a single one would dominate the crash budget.
	cfg.Spatial.MassEventsPerYear = 0
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Data.Machines) != len(b.Data.Machines) ||
		len(a.Data.Tickets) != len(b.Data.Tickets) ||
		len(a.Data.Incidents) != len(b.Data.Incidents) {
		t.Fatal("same seed produced different datasets")
	}
	for i := range a.Data.Tickets {
		ta, tb := a.Data.Tickets[i], b.Data.Tickets[i]
		if ta.ServerID != tb.ServerID || !ta.Opened.Equal(tb.Opened) || ta.Description != tb.Description {
			t.Fatalf("ticket %d differs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := tinyConfig()
	a, _ := Generate(cfg)
	cfg.Seed++
	b, _ := Generate(cfg)
	if len(a.Data.Tickets) == len(b.Data.Tickets) {
		same := true
		for i := range a.Data.Tickets {
			if !a.Data.Tickets[i].Opened.Equal(b.Data.Tickets[i].Opened) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical ticket streams")
		}
	}
}

func TestGeneratePopulations(t *testing.T) {
	cfg := tinyConfig()
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range cfg.Systems {
		if got := out.Data.CountMachines(model.PM, sc.System); got != sc.PMs {
			t.Errorf("%v PMs = %d, want %d", sc.System, got, sc.PMs)
		}
		if got := out.Data.CountMachines(model.VM, sc.System); got != sc.VMs {
			t.Errorf("%v VMs = %d, want %d", sc.System, got, sc.VMs)
		}
		if got := out.Data.CountMachines(model.Box, sc.System); got == 0 && sc.VMs > 0 {
			t.Errorf("%v has VMs but no boxes", sc.System)
		}
	}
}

func TestGenerateTicketVolumes(t *testing.T) {
	cfg := tinyConfig()
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perSystem := make(map[model.System]int)
	crashes := make(map[model.System]int)
	for _, tk := range out.Data.Tickets {
		perSystem[tk.System]++
		if tk.IsCrash {
			crashes[tk.System]++
		}
	}
	for _, sc := range cfg.Systems {
		got := float64(perSystem[sc.System])
		want := float64(sc.AllTickets)
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("%v ticket volume %v, want ≈%v", sc.System, got, want)
		}
		gotCrash := float64(crashes[sc.System])
		wantCrash := sc.crashTickets()
		if math.Abs(gotCrash-wantCrash) > 0.45*wantCrash+10 {
			t.Errorf("%v crash volume %v, want ≈%v", sc.System, gotCrash, wantCrash)
		}
	}
}

func TestGenerateDatasetValidates(t *testing.T) {
	out, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Data.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSysIIVMsNeverFail(t *testing.T) {
	cfg := tinyConfig() // Sys II PMCrashShare = 1.0: no VM crash budget
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range out.Data.Tickets {
		if !tk.IsCrash {
			continue
		}
		m := out.Data.Machine(tk.ServerID)
		if m != nil && m.Kind == model.VM && m.System == model.SysII {
			t.Fatalf("Sys II VM %s has a crash ticket", m.ID)
		}
	}
}

func TestVMsReferenceBoxes(t *testing.T) {
	out, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range out.Data.Machines {
		if m.Kind != model.VM {
			continue
		}
		if m.HostID == "" {
			t.Fatalf("VM %s has no host", m.ID)
		}
		host := out.Data.Machine(m.HostID)
		if host == nil || host.Kind != model.Box {
			t.Fatalf("VM %s host %q is not a box", m.ID, m.HostID)
		}
		if host.System != m.System {
			t.Fatalf("VM %s hosted in a different system", m.ID)
		}
	}
}

func TestMonitorCoverage(t *testing.T) {
	cfg := tinyConfig()
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, m := range out.Data.Machines {
		if m.Kind == model.Box {
			continue
		}
		if _, ok := out.Monitor.FirstSeen(m.ID); !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d machines missing from the monitoring DB", missing)
	}
}

func TestVMCreationSplit(t *testing.T) {
	cfg := tinyConfig()
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, after := 0, 0
	for _, m := range out.Data.Machines {
		if m.Kind != model.VM {
			continue
		}
		if m.Created.Before(cfg.MonitorEpoch) {
			before++
		} else {
			after++
		}
	}
	total := before + after
	frac := float64(before) / float64(total)
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("pre-epoch VM fraction %.2f, want ≈%.2f", frac, cfg.VMCreatedBeforeEpoch)
	}
}

func TestIncidentsShareClassAndTime(t *testing.T) {
	out, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	byIncident := make(map[string][]model.Ticket)
	for _, tk := range out.Data.Tickets {
		if tk.IsCrash && tk.IncidentID != "" {
			byIncident[tk.IncidentID] = append(byIncident[tk.IncidentID], tk)
		}
	}
	for id, tickets := range byIncident {
		for _, tk := range tickets {
			if tk.Class != tickets[0].Class {
				t.Fatalf("incident %s mixes classes", id)
			}
			if d := tk.Opened.Sub(tickets[0].Opened); d < -time.Hour || d > time.Hour {
				t.Fatalf("incident %s spans %v", id, d)
			}
		}
	}
}

func TestSpatialDisabledMeansSingletonIncidents(t *testing.T) {
	cfg := tinyConfig()
	cfg.Spatial.Enabled = false
	out, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range out.Data.Incidents {
		if len(inc.Servers) != 1 {
			t.Fatalf("spatial disabled but incident %s involves %d servers", inc.ID, len(inc.Servers))
		}
	}
}

func TestRepairTimesPositive(t *testing.T) {
	out, err := Generate(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range out.Data.Tickets {
		if !tk.Closed.After(tk.Opened) {
			t.Fatalf("ticket %s has non-positive repair time", tk.ID)
		}
	}
}

func TestScaleDown(t *testing.T) {
	if got := scaleDown(16, 8); got != 2 {
		t.Errorf("scaleDown(16,8) = %d", got)
	}
	if got := scaleDown(3, 8); got != 1 {
		t.Errorf("scaleDown(3,8) = %d (floor is 1)", got)
	}
	if got := scaleDown(0, 8); got != 0 {
		t.Errorf("scaleDown(0,8) = %d", got)
	}
}

func TestExposureWeeks(t *testing.T) {
	cfg := tinyConfig()
	full := &machineState{m: &model.Machine{Created: cfg.MonitorEpoch}}
	if got := exposureWeeks(cfg, full); math.Abs(got-cfg.Observation.Weeks()) > 1e-9 {
		t.Errorf("full exposure %v", got)
	}
	mid := cfg.Observation.Start.Add(cfg.Observation.Duration() / 2)
	half := &machineState{m: &model.Machine{Created: mid}}
	if got := exposureWeeks(cfg, half); math.Abs(got-cfg.Observation.Weeks()/2) > 1e-9 {
		t.Errorf("half exposure %v", got)
	}
	future := &machineState{m: &model.Machine{Created: cfg.Observation.End.AddDate(0, 1, 0)}}
	if got := exposureWeeks(cfg, future); got != 0 {
		t.Errorf("future machine exposure %v", got)
	}
}
