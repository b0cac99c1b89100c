package core

import (
	"math"
	"testing"
	"time"

	"failscope/internal/model"
)

var (
	t0     = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	obsWin = model.Window{Start: t0, End: t0.AddDate(1, 0, 0)} // 52+ weeks
)

// builder assembles small, exactly verifiable datasets.
type builder struct {
	machines  []*model.Machine
	tickets   []model.Ticket
	incidents []model.Incident
	attrs     map[model.MachineID]model.Attributes
	nextID    int
}

func newBuilder() *builder {
	return &builder{attrs: make(map[model.MachineID]model.Attributes)}
}

func (b *builder) machine(id model.MachineID, kind model.MachineKind, sys model.System, res model.Capacity) *builder {
	b.machines = append(b.machines, &model.Machine{
		ID: id, Kind: kind, System: sys, Capacity: res, Created: t0.AddDate(-1, 0, 0),
	})
	return b
}

func (b *builder) attr(id model.MachineID, a model.Attributes) *builder {
	b.attrs[id] = a
	return b
}

func (b *builder) crash(server model.MachineID, sys model.System, day int, class model.FailureClass, repairHours float64) *builder {
	b.nextID++
	at := t0.Add(time.Duration(day) * 24 * time.Hour)
	b.tickets = append(b.tickets, model.Ticket{
		ID:       "T" + string(rune('0'+b.nextID%10)) + string(rune('a'+b.nextID/10)),
		ServerID: server, System: sys, Opened: at,
		Closed:  at.Add(time.Duration(repairHours * float64(time.Hour))),
		IsCrash: true, Class: class,
	})
	return b
}

func (b *builder) incident(id string, class model.FailureClass, servers ...model.MachineID) *builder {
	b.incidents = append(b.incidents, model.Incident{
		ID: id, Class: class, Time: t0.Add(24 * time.Hour), Servers: servers,
	})
	return b
}

func (b *builder) input() Input {
	return Input{
		Data:  model.NewDataset(obsWin, b.machines, b.tickets, b.incidents),
		Attrs: b.attrs,
	}
}

func TestDatasetStats(t *testing.T) {
	in := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		machine("vm1", model.VM, model.SysI, model.Capacity{}).
		crash("pm1", model.SysI, 1, model.ClassHardware, 1).
		crash("vm1", model.SysI, 2, model.ClassReboot, 1).
		crash("vm1", model.SysI, 3, model.ClassReboot, 1).
		input()
	rows := DatasetStats(in)
	if len(rows) != model.NumSystems+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	sysI := rows[0]
	if sysI.PMs != 1 || sysI.VMs != 1 || sysI.CrashTickets != 3 {
		t.Fatalf("SysI row: %+v", sysI)
	}
	if math.Abs(sysI.PMShare-1.0/3) > 1e-12 || math.Abs(sysI.VMShare-2.0/3) > 1e-12 {
		t.Fatalf("shares: %+v", sysI)
	}
	total := rows[len(rows)-1]
	if total.CrashTickets != 3 || total.CrashShare != 1.0 {
		t.Fatalf("total row: %+v", total)
	}
	if math.Abs(total.PMShare-1.0/3) > 1e-12 {
		t.Fatalf("total PM share: %v", total.PMShare)
	}
}

func TestClassDistribution(t *testing.T) {
	in := newBuilder().
		machine("m", model.PM, model.SysI, model.Capacity{}).
		crash("m", model.SysI, 1, model.ClassSoftware, 1).
		crash("m", model.SysI, 2, model.ClassSoftware, 1).
		crash("m", model.SysI, 3, model.ClassOther, 1).
		crash("m", model.SysI, 4, model.ClassPower, 1).
		input()
	rows := ClassDistribution(in)
	shares := make(map[model.FailureClass]float64)
	for _, r := range rows {
		if r.System == 0 {
			shares[r.Class] = r.Share
		}
	}
	if shares[model.ClassSoftware] != 0.5 || shares[model.ClassOther] != 0.25 ||
		shares[model.ClassPower] != 0.25 || shares[model.ClassHardware] != 0 {
		t.Fatalf("shares: %v", shares)
	}
}

func TestWeeklyFailureRates(t *testing.T) {
	b := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		machine("pm2", model.PM, model.SysI, model.Capacity{})
	// Two failures in week 0, one in week 1, none later.
	b.crash("pm1", model.SysI, 0, model.ClassSoftware, 1)
	b.crash("pm2", model.SysI, 1, model.ClassSoftware, 1)
	b.crash("pm1", model.SysI, 8, model.ClassSoftware, 1)
	in := b.input()

	rs := rateSummary(in, model.PM, model.SysI)
	if rs.Servers != 2 {
		t.Fatalf("servers = %d", rs.Servers)
	}
	weeks := float64(obsWin.NumWeeks())
	wantMean := (2.0/2 + 1.0/2) / weeks // weekly rates: 1.0, 0.5, 0, 0, ...
	if math.Abs(rs.Summary.Mean-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", rs.Summary.Mean, wantMean)
	}
	if empty := rateSummary(in, model.VM, model.SysI); empty.Servers != 0 || empty.Summary.N != 0 {
		t.Fatalf("empty population summary: %+v", empty)
	}
}

func TestInterFailureGaps(t *testing.T) {
	in := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		machine("pm2", model.PM, model.SysI, model.Capacity{}).
		machine("pm3", model.PM, model.SysI, model.Capacity{}).
		crash("pm1", model.SysI, 0, model.ClassSoftware, 1).
		crash("pm1", model.SysI, 10, model.ClassSoftware, 1).
		crash("pm1", model.SysI, 40, model.ClassSoftware, 1).
		crash("pm2", model.SysI, 5, model.ClassSoftware, 1). // single failure
		input()
	res := InterFailure(in, model.PM)
	if len(res.GapsDays) != 2 {
		t.Fatalf("gaps = %v", res.GapsDays)
	}
	if res.GapsDays[0] != 10 && res.GapsDays[1] != 10 {
		t.Fatalf("missing 10-day gap: %v", res.GapsDays)
	}
	if res.FailingServers != 2 || res.SingleFailureServers != 1 {
		t.Fatalf("server counts: %+v", res)
	}
	if math.Abs(res.Summary.Mean-20) > 1e-12 {
		t.Fatalf("mean gap %v, want 20", res.Summary.Mean)
	}
}

func TestInterFailureByClass(t *testing.T) {
	in := newBuilder().
		machine("a", model.PM, model.SysI, model.Capacity{}).
		machine("b", model.PM, model.SysI, model.Capacity{}).
		// Operator view SW: failures on days 0 (a), 4 (b), 10 (a): gaps 4, 6.
		crash("a", model.SysI, 0, model.ClassSoftware, 1).
		crash("b", model.SysI, 4, model.ClassSoftware, 1).
		crash("a", model.SysI, 10, model.ClassSoftware, 1).
		input()
	rows := InterFailureByClass(in)
	var sw ClassGapStats
	for _, r := range rows {
		if r.Class == model.ClassSoftware {
			sw = r
		}
	}
	if math.Abs(sw.OperatorMean-5) > 1e-12 {
		t.Fatalf("operator mean %v, want 5", sw.OperatorMean)
	}
	// Server view: only server a repeats, gap 10.
	if math.Abs(sw.ServerMean-10) > 1e-12 {
		t.Fatalf("server mean %v, want 10", sw.ServerMean)
	}
	// A class with no tickets yields NaNs, not zeros.
	for _, r := range rows {
		if r.Class == model.ClassPower && !math.IsNaN(r.OperatorMean) {
			t.Fatalf("power operator mean = %v, want NaN", r.OperatorMean)
		}
	}
}

func TestRepairTimes(t *testing.T) {
	in := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		machine("vm1", model.VM, model.SysI, model.Capacity{}).
		crash("pm1", model.SysI, 0, model.ClassHardware, 10).
		crash("pm1", model.SysI, 1, model.ClassSoftware, 30).
		crash("vm1", model.SysI, 2, model.ClassReboot, 2).
		input()
	pm := RepairTimes(in, model.PM)
	if pm.Summary.N != 2 || math.Abs(pm.Summary.Mean-20) > 1e-12 {
		t.Fatalf("PM repair: %+v", pm.Summary)
	}
	if pm.RebootShare != 0 {
		t.Fatalf("PM reboot share %v", pm.RebootShare)
	}
	vm := RepairTimes(in, model.VM)
	if vm.RebootShare != 1 {
		t.Fatalf("VM reboot share %v", vm.RebootShare)
	}
}

func TestRepairByClass(t *testing.T) {
	in := newBuilder().
		machine("m", model.PM, model.SysI, model.Capacity{}).
		crash("m", model.SysI, 0, model.ClassPower, 1).
		crash("m", model.SysI, 1, model.ClassPower, 3).
		input()
	rows := RepairByClass(in)
	var power ClassRepairStats
	for _, r := range rows {
		if r.Class == model.ClassPower {
			power = r
		}
	}
	if power.N != 2 || power.Mean != 2 || power.Median != 2 {
		t.Fatalf("power repair: %+v", power)
	}
}

func TestRecurrenceCountsAndCensoring(t *testing.T) {
	b := newBuilder().machine("pm1", model.PM, model.SysI, model.Capacity{})
	// Failures on day 0 and day 3: the first recurs within a week.
	b.crash("pm1", model.SysI, 0, model.ClassSoftware, 1)
	b.crash("pm1", model.SysI, 3, model.ClassSoftware, 1)
	// A failure 2 days before the window end: censored for week/month.
	b.crash("pm1", model.SysI, 363, model.ClassSoftware, 1)
	in := b.input()
	res := Recurrence(in, model.PM, 0)
	if res.Failures != 3 {
		t.Fatalf("failures = %d", res.Failures)
	}
	// Uncensored for week: day-0 and day-3 failures (day-363 is censored).
	if res.UncensoredForWeek != 2 {
		t.Fatalf("uncensored for week = %d", res.UncensoredForWeek)
	}
	if math.Abs(res.WithinWeek-0.5) > 1e-12 { // only day-0 recurs within 7d
		t.Fatalf("within week = %v, want 0.5", res.WithinWeek)
	}
	if math.Abs(res.WithinDay-0) > 1e-12 {
		t.Fatalf("within day = %v, want 0", res.WithinDay)
	}
}

func TestRandomWeeklyProbability(t *testing.T) {
	b := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		machine("pm2", model.PM, model.SysI, model.Capacity{})
	// Both servers fail in week 0; pm1 fails twice (distinct count once).
	b.crash("pm1", model.SysI, 0, model.ClassSoftware, 1)
	b.crash("pm1", model.SysI, 1, model.ClassSoftware, 1)
	b.crash("pm2", model.SysI, 2, model.ClassSoftware, 1)
	in := b.input()
	got := RandomWeeklyProbability(in, model.PM, model.SysI)
	want := 1.0 / float64(obsWin.NumWeeks()) // week 0: 2/2 servers; others 0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("random weekly = %v, want %v", got, want)
	}
	if zero := RandomWeeklyProbability(in, model.VM, 0); zero != 0 {
		t.Fatalf("empty population random = %v", zero)
	}
}

func TestRandomVsRecurrentTable(t *testing.T) {
	in := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		crash("pm1", model.SysI, 0, model.ClassSoftware, 1).
		crash("pm1", model.SysI, 2, model.ClassSoftware, 1).
		input()
	rows := RandomVsRecurrentTable(in)
	if len(rows) != 2*(model.NumSystems+1) {
		t.Fatalf("rows = %d", len(rows))
	}
	all := rows[0]
	if all.Kind != model.PM || all.System != 0 {
		t.Fatalf("first row: %+v", all)
	}
	if all.Ratio <= 0 {
		t.Fatalf("ratio = %v", all.Ratio)
	}
}

func TestSpatial(t *testing.T) {
	in := newBuilder().
		machine("pm1", model.PM, model.SysI, model.Capacity{}).
		machine("pm2", model.PM, model.SysI, model.Capacity{}).
		machine("vm1", model.VM, model.SysI, model.Capacity{}).
		machine("vm2", model.VM, model.SysI, model.Capacity{}).
		incident("i1", model.ClassPower, "pm1", "pm2", "vm1").
		incident("i2", model.ClassReboot, "vm1").
		incident("i3", model.ClassSoftware, "vm1", "vm2").
		input()
	res := Spatial(in)
	if res.Incidents != 3 {
		t.Fatalf("incidents = %d", res.Incidents)
	}
	if math.Abs(res.ShareOne-1.0/3) > 1e-12 || math.Abs(res.ShareTwoPlus-2.0/3) > 1e-12 {
		t.Fatalf("shares: %+v", res)
	}
	// PM view: i1 has 2 PMs, i2 zero, i3 zero.
	if math.Abs(res.PMZero-2.0/3) > 1e-12 || math.Abs(res.PMTwoPlus-1.0/3) > 1e-12 {
		t.Fatalf("PM buckets: %+v", res)
	}
	// VM view: i1 one, i2 one, i3 two.
	if math.Abs(res.VMOne-2.0/3) > 1e-12 || math.Abs(res.VMTwoPlus-1.0/3) > 1e-12 {
		t.Fatalf("VM buckets: %+v", res)
	}
	if res.MaxServers != 3 || res.MaxServersClass != model.ClassPower {
		t.Fatalf("max: %+v", res)
	}
	if math.Abs(res.DependentVMShare-1.0/3) > 1e-12 {
		t.Fatalf("dependent VM share: %v", res.DependentVMShare)
	}
}

func TestSpatialEmpty(t *testing.T) {
	in := newBuilder().machine("m", model.PM, model.SysI, model.Capacity{}).input()
	if res := Spatial(in); res.Incidents != 0 || res.ShareOne != 0 {
		t.Fatalf("empty spatial: %+v", res)
	}
}

func TestServersPerIncidentByClass(t *testing.T) {
	in := newBuilder().
		machine("a", model.PM, model.SysI, model.Capacity{}).
		machine("b", model.PM, model.SysI, model.Capacity{}).
		incident("i1", model.ClassPower, "a", "b").
		incident("i2", model.ClassPower, "a").
		incident("i3", model.ClassReboot, "b").
		input()
	rows := ServersPerIncidentByClass(in)
	byClass := make(map[model.FailureClass]ClassSpatialStats)
	for _, r := range rows {
		byClass[r.Class] = r
	}
	if p := byClass[model.ClassPower]; p.Incidents != 2 || p.Mean != 1.5 || p.Max != 2 {
		t.Fatalf("power: %+v", p)
	}
	if r := byClass[model.ClassReboot]; r.Incidents != 1 || r.Mean != 1 {
		t.Fatalf("reboot: %+v", r)
	}
	if hw := byClass[model.ClassHardware]; hw.Incidents != 0 {
		t.Fatalf("hardware: %+v", hw)
	}
}
