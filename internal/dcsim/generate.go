package dcsim

import (
	"fmt"
	"strconv"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/par"
	"failscope/internal/ticketdb"
	"failscope/internal/xrand"
)

// Output is the generated field data: the raw databases the collection
// pipeline mines (ticket store + monitoring DB) and the assembled dataset
// with ground truth.
type Output struct {
	Data    *model.Dataset
	Tickets *ticketdb.Store
	Monitor *monitordb.DB
}

// Generate runs the simulator and returns the field data. It is
// deterministic in cfg.Seed: every random draw comes from a stream derived
// from (Seed, stage, entity), so the output is byte-identical at every
// cfg.Parallelism setting — machines, events and tickets merely shard
// across more workers.
func Generate(cfg Config) (*Output, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := cfg.Observer

	topoSpan := o.Start("topology")
	systems := buildTopology(cfg, topoSpan)
	topoSpan.End()

	monitor := monitordb.New(cfg.MonitorEpoch, cfg.MonitorRetention)
	monitor.Instrument(o.Metrics())
	monitor.SetLogger(o.Log())
	store := ticketdb.NewStore()
	renderer := ticketdb.NewRenderer(cfg.VagueTextProb)

	// Calibrate failure rates, then generate the event log.
	calSpan := o.Start("calibration")
	for _, ss := range systems {
		calibrateRates(cfg, ss)
	}
	calSpan.End()

	evSpan := o.Start("events")
	nextIncident := 1
	var allEvents []event
	for _, ss := range systems {
		allEvents = append(allEvents, generateEvents(cfg, ss, &nextIncident)...)
	}
	evSpan.AddItems(len(allEvents))
	evSpan.End()

	// Render crash tickets. Each event's repair draw and ticket text come
	// from a stream keyed by the event's position in the (deterministic)
	// event log, so rendering shards freely across workers.
	tickSpan := o.Start("tickets")
	tickets := make([]model.Ticket, len(allEvents))
	tickSpan.AddPool(par.ForEach(cfg.Parallelism, len(allEvents), func(i int) {
		ev := allEvents[i]
		rng := xrand.Derive(cfg.Seed, streamTicket, uint64(i))
		// Repair effort follows the physical cause; the ticket label (and
		// its text quality) follows what the writer revealed.
		repair := cfg.Repair[ev.cause].Sample(rng)
		if ev.st.m.Kind == model.VM {
			if scale, ok := cfg.VMRepairScale[ev.cause]; ok && scale > 0 {
				repair *= scale
			}
		}
		desc, res := renderer.CrashWith(rng, ev.label, ev.st.m.ID)
		tickets[i] = model.Ticket{
			ServerID:    ev.st.m.ID,
			IncidentID:  "I" + strconv.Itoa(ev.incident),
			System:      ev.st.m.System,
			Opened:      ev.t,
			Closed:      ev.t.Add(time.Duration(repair * float64(time.Hour))),
			Description: desc,
			Resolution:  res,
			IsCrash:     true,
			Class:       ev.label,
		}
	}))
	tickSpan.End()

	// Incident log, folded sequentially in event order.
	incSpan := o.Start("incidents")
	incidents := make(map[int]*model.Incident)
	for _, ev := range allEvents {
		inc := incidents[ev.incident]
		if inc == nil {
			inc = &model.Incident{
				ID:    "I" + strconv.Itoa(ev.incident),
				Class: ev.label,
				Time:  ev.t,
			}
			incidents[ev.incident] = inc
			o.Metrics().Add("dcsim.incidents."+ev.label.String(), 1)
		}
		inc.Servers = append(inc.Servers, ev.st.m.ID)
	}
	incSpan.AddItems(len(incidents))
	incSpan.End()

	// Background (non-crash) ticket traffic.
	bgSpan := o.Start("background")
	nCrash := len(allEvents)
	for _, ss := range systems {
		tickets = append(tickets, backgroundTickets(cfg, ss, renderer, bgSpan)...)
	}
	bgSpan.AddItems(len(tickets) - nCrash)
	bgSpan.End()

	// Monitoring database: usage series, placements, power events.
	monSpan := o.Start("monitoring")
	writeMonitoring(cfg, systems, monitor)
	monSpan.End()
	monitor.RecordFootprint()

	// Assemble and validate the dataset.
	asmSpan := o.Start("assemble")
	var machines []*model.Machine
	for _, ss := range systems {
		for _, st := range ss.pms {
			machines = append(machines, st.m)
		}
		for _, b := range ss.boxes {
			machines = append(machines, b.m)
		}
		for _, st := range ss.vms {
			machines = append(machines, st.m)
		}
	}
	store.Reserve(len(tickets))
	for i := range tickets {
		stored := store.Append(tickets[i])
		tickets[i].ID = stored.ID
	}
	var incidentList []model.Incident
	for i := 1; i < nextIncident; i++ {
		if inc := incidents[i]; inc != nil {
			incidentList = append(incidentList, *inc)
		}
	}
	data := model.NewDataset(cfg.Observation, machines, tickets, incidentList)
	if err := data.Validate(); err != nil {
		return nil, fmt.Errorf("dcsim: generated dataset invalid: %w", err)
	}
	asmSpan.End()

	m := o.Metrics()
	m.Add("dcsim.machines", int64(len(machines)))
	m.Add("dcsim.tickets", int64(len(tickets)))
	m.Add("dcsim.crash_tickets", int64(nCrash))
	m.Add("dcsim.incidents", int64(len(incidentList)))
	o.Log().Info("field data generated",
		"machines", len(machines), "tickets", len(tickets),
		"crash_tickets", nCrash, "incidents", len(incidentList))
	return &Output{Data: data, Tickets: store, Monitor: monitor}, nil
}

// backgroundTickets generates the >94% of problem tickets that are not
// server failures. Every ticket draws from its own (system, index) stream.
func backgroundTickets(cfg Config, ss *systemState, renderer *ticketdb.Renderer, sp *obs.Span) []model.Ticket {
	n := int(float64(ss.cfg.AllTickets) * (1 - ss.cfg.CrashShare))
	machines := allMachines(ss)
	if len(machines) == 0 || n <= 0 {
		return nil
	}
	span := cfg.Observation.Duration()
	sys := uint64(ss.cfg.System)
	out := make([]model.Ticket, n)
	sp.AddPool(par.ForEach(cfg.Parallelism, n, func(i int) {
		rng := xrand.Derive(cfg.Seed, streamBackground, sys, uint64(i))
		st := machines[rng.Intn(len(machines))]
		opened := cfg.Observation.Start.Add(time.Duration(rng.Float64() * float64(span)))
		repair := cfg.NonCrashRepair.Sample(rng)
		desc, res := renderer.NonCrashWith(rng, st.m.ID)
		out[i] = model.Ticket{
			ServerID:    st.m.ID,
			System:      ss.cfg.System,
			Opened:      opened,
			Closed:      opened.Add(time.Duration(repair * float64(time.Hour))),
			Description: desc,
			Resolution:  res,
			IsCrash:     false,
		}
	}))
	return out
}

// writeMonitoring populates the monitoring database, one system after
// another: a birth-marker sample at each machine's first observable moment,
// weekly usage averages across the observation year, monthly VM placements
// (with occasional migrations) and power events inside the fine window.
// It runs on one worker. Every write takes the DB's one lock, so a second
// worker only queued behind it and lost at every scale (DESIGN.md §7).
// Each machine's draws come from its own streams, so the content is the
// same at every cfg.Parallelism.
func writeMonitoring(cfg Config, systems []*systemState, db *monitordb.DB) {
	// Room for the birth marker and every weekly sample: the buffers
	// never grow.
	n := int(cfg.Observation.Duration()/(7*24*time.Hour)) + 2
	sc := genScratch{
		cpu: make([]monitordb.Sample, 0, n),
		mem: make([]monitordb.Sample, 0, n),
		dsk: make([]monitordb.Sample, 0, n),
		net: make([]monitordb.Sample, 0, n),
	}
	for _, ss := range systems {
		for _, st := range allMachines(ss) {
			writeUsage(cfg, st, db, &sc)
		}
		for _, st := range ss.vms {
			writePlacements(cfg, ss, st, db)
			writePowerEvents(cfg, st, db)
		}
	}
}

// genScratch holds the four usage-series buffers the monitoring writers
// stage each machine in. AddSeries copies what it accepts, so one set of
// buffers serves every machine.
type genScratch struct {
	cpu, mem, dsk, net []monitordb.Sample
}

// writeUsage emits one machine's birth marker and weekly usage series,
// staged in the scratch buffers.
func writeUsage(cfg Config, st *machineState, db *monitordb.DB, sc *genScratch) {
	rng := machineRNG(cfg, streamUsage, st.m.ID)
	first := st.m.Created
	if first.Before(cfg.MonitorEpoch) {
		first = cfg.MonitorEpoch
	}
	cpu, mem, dsk, net := sc.cpu[:0], sc.mem[:0], sc.dsk[:0], sc.net[:0]

	// Birth marker: the machine's first heartbeat in the database,
	// which is what the paper uses as the VM creation date.
	cpu = append(cpu, monitordb.Sample{Time: first, Value: noisy(rng, st.cpuUtil, 2)})

	start := cfg.Observation.Start
	if st.m.Created.After(start) {
		start = st.m.Created
	}
	for t := start; t.Before(cfg.Observation.End); t = t.Add(7 * 24 * time.Hour) {
		cpu = append(cpu, monitordb.Sample{Time: t, Value: noisy(rng, st.cpuUtil, 2)})
		mem = append(mem, monitordb.Sample{Time: t, Value: noisy(rng, st.memUtil, 2)})
		dsk = append(dsk, monitordb.Sample{Time: t, Value: noisy(rng, st.diskUtil, 1.5)})
		net = append(net, monitordb.Sample{Time: t, Value: st.netKbps * (0.85 + 0.3*rng.Float64())})
	}
	db.AddSeries(st.m.ID, monitordb.MetricCPUUtil, cpu)
	db.AddSeries(st.m.ID, monitordb.MetricMemUtil, mem)
	db.AddSeries(st.m.ID, monitordb.MetricDiskUtil, dsk)
	db.AddSeries(st.m.ID, monitordb.MetricNetKbps, net)
	sc.cpu, sc.mem, sc.dsk, sc.net = cpu, mem, dsk, net
}

// writePlacements emits one VM's monthly placements over the observation
// year, with rare migrations.
func writePlacements(cfg Config, ss *systemState, st *machineState, db *monitordb.DB) {
	rng := machineRNG(cfg, streamPlacement, st.m.ID)
	cur := ss.boxes[st.boxIdx]
	for t := cfg.Observation.Start; t.Before(cfg.Observation.End); t = t.AddDate(0, 1, 0) {
		if st.m.Created.After(t) {
			continue
		}
		if rng.Bool(cfg.Spatial.MigrationProb) && len(ss.boxes) > 1 {
			cur = ss.boxes[rng.Intn(len(ss.boxes))]
		}
		db.SetPlacement(st.m.ID, cur.m.ID, t)
	}
}

// writePowerEvents emits one VM's power-state transitions inside the fine
// 15-minute window only — the paper has two months of fine-grained data.
func writePowerEvents(cfg Config, st *machineState, db *monitordb.DB) {
	if st.onOffPerMonth <= 0 {
		return
	}
	rng := machineRNG(cfg, streamPower, st.m.ID)
	fine := cfg.FineWindow
	months := fine.Duration().Hours() / (24 * 30)
	cycles := rng.Poisson(st.onOffPerMonth * months)
	for i := 0; i < cycles; i++ {
		off := fine.Start.Add(time.Duration(rng.Float64() * float64(fine.Duration())))
		downFor := time.Duration((0.5 + 6*rng.Float64()) * float64(time.Hour))
		on := off.Add(downFor)
		db.AddPowerEvent(st.m.ID, monitordb.PowerEvent{Time: off, On: false})
		if on.Before(fine.End) {
			db.AddPowerEvent(st.m.ID, monitordb.PowerEvent{Time: on, On: true})
		}
	}
}

func noisy(rng *xrand.RNG, v, sd float64) float64 {
	return clamp(v+sd*rng.Norm(), 0, 100)
}
