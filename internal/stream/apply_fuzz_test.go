package stream_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"failscope/internal/detect"
	"failscope/internal/durable"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/stream"
	"failscope/internal/xrand"
)

var applyStart = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)

// applyHorizon is the fuzz detector's alert horizon: three days, against
// crash gaps of one to six days, so the crash-looping machines' alerts
// both confirm and expire.
const applyHorizon = 3 * 24 * time.Hour

// applySegmentBytes rotates the fuzz store's WAL every few groups.
const applySegmentBytes = 16 << 10

// newApplyEngine is an engine with detection. It also sets the unread
// monitor fields, with a retention shorter than the fuzz stream.
func newApplyEngine(t testing.TB) *stream.Engine {
	t.Helper()
	win := model.Window{Start: applyStart, End: applyStart.AddDate(0, 3, 0)}
	eng, err := stream.NewEngine(stream.Config{
		Observation:      win,
		FineWindow:       win,
		MonitorEpoch:     applyStart,
		MonitorRetention: 20 * 24 * time.Hour,
		Detector:         detect.New(detect.Config{Horizon: applyHorizon}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// applyStream builds a seed-determined stream over six weeks of 6-hour
// steps: a roster of PMs and hosted VMs; one to three crash-looping
// machines, whose recurrence alerts confirm or expire; background tickets
// and back-dated crashes; usage samples, one series shifting for good
// midway; and now and then a power cycle, a migration, a
// two-server incident or a watermark heartbeat.
func applyStream(seed uint64) []stream.Event {
	r := xrand.New(seed)
	nPM, nVM := 2+r.Intn(3), 2+r.Intn(4)
	var evs []stream.Event
	var ids []model.MachineID
	for i := 0; i < nPM+nVM; i++ {
		m := &model.Machine{
			ID:       model.MachineID(fmt.Sprintf("S%d-PM-%04d", 1+i%2, i)),
			Kind:     model.PM,
			System:   model.System(1 + i%2),
			Capacity: model.Capacity{CPUs: 4 << r.Intn(3), MemoryGB: 16, DiskGB: 500, Disks: 1 + r.Intn(4)},
			Created:  applyStart.AddDate(0, -1-r.Intn(24), 0),
		}
		if i >= nPM {
			m.ID = model.MachineID(fmt.Sprintf("S%d-VM-%04d", 1+i%2, i))
			m.Kind, m.HostID = model.VM, ids[r.Intn(nPM)]
		}
		ids = append(ids, m.ID)
		evs = append(evs, stream.Event{Type: "machine", Machine: m})
	}

	at := func(t time.Time) *time.Time { return &t }
	ticket := func(id model.MachineID, n int, opened time.Time, crash bool) stream.Event {
		return stream.Event{Type: "ticket", Ticket: &model.Ticket{
			ID: fmt.Sprintf("T-%d", n), ServerID: id, System: model.System(1 + n%2),
			Opened: opened, Closed: opened.Add(time.Duration(1+r.Intn(600)) * time.Minute),
			Description: "server unreachable", Resolution: "replaced part",
			IsCrash: crash, Class: model.FailureClass(1 + r.Intn(6)),
		}}
	}
	loopers := ids[:1+r.Intn(3)]
	nextCrash := make([]time.Time, len(loopers))
	for i := range nextCrash {
		nextCrash[i] = applyStart.Add(time.Duration(r.Intn(72)) * time.Hour)
	}
	monitored := ids[:min(len(ids), 4)]
	shifted, shiftAt := monitored[r.Intn(len(monitored))], 60+r.Intn(60)
	tickets := 0
	for step := 0; step < 6*7*4; step++ {
		now := applyStart.Add(time.Duration(step) * 6 * time.Hour)
		for i, id := range loopers {
			if now.Before(nextCrash[i]) {
				continue
			}
			evs = append(evs, ticket(id, tickets, nextCrash[i], true))
			tickets++
			nextCrash[i] = nextCrash[i].Add(time.Duration(24+r.Intn(5*24)) * time.Hour)
		}
		for i, id := range monitored {
			if !r.Bool(0.5) {
				continue
			}
			v := 40 + r.Norm()
			if id == shifted && step >= shiftAt {
				v += 45
			}
			evs = append(evs, stream.Event{Type: "sample", ServerID: id,
				Metric: monitordb.Metric(1 + i), Time: at(now.Add(time.Duration(r.Intn(360)) * time.Minute)), Value: v})
		}
		switch u := r.Float64(); {
		case u < 0.04:
			evs = append(evs, ticket(ids[r.Intn(len(ids))], tickets, now, r.Bool(0.3)))
			tickets++
		case u < 0.06:
			back := time.Duration(1+r.Intn(48)) * time.Hour
			evs = append(evs, ticket(loopers[r.Intn(len(loopers))], tickets, now.Add(-back), true))
			tickets++
		case u < 0.09:
			on, off := true, false
			id := ids[r.Intn(len(ids))]
			evs = append(evs, stream.Event{Type: "power", ServerID: id, Time: at(now), On: &off},
				stream.Event{Type: "power", ServerID: id, Time: at(now.Add(time.Hour)), On: &on})
		case u < 0.11 && nVM > 0:
			evs = append(evs, stream.Event{Type: "placement", ServerID: ids[nPM+r.Intn(nVM)],
				Host: ids[r.Intn(nPM)], Time: at(now)})
		case u < 0.12:
			a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			evs = append(evs, stream.Event{Type: "incident", Incident: &model.Incident{
				ID: fmt.Sprintf("I-%d", step), Class: model.ClassNetwork, Time: now,
				Servers: []model.MachineID{a, b}}})
		case u < 0.17:
			evs = append(evs, stream.Event{Type: "advance", Time: at(now.Add(5 * time.Hour))})
		}
	}
	return evs
}

// applyGroup is one commit group of a plan: its callers' batches, in
// queue order.
type applyGroup struct {
	batches    [][]stream.Event
	mode       byte // 0 Apply, 1 ApplyBatchTimed, 2–3 that many concurrent callers
	checkpoint bool // durable runs checkpoint after the group
}

// applyPlan cuts events into commit groups. Each group reads one plan
// byte b: its first batch takes 1+b&0x1f events, b&0x20 asks for a
// checkpoint after it, and b>>6 is its mode. A group of concurrent callers
// reads one more byte per follower for the follower's batch length. Once
// the plan runs out, the rest of the stream is one Apply.
func applyPlan(events []stream.Event, plan []byte) []applyGroup {
	var groups []applyGroup
	take := func(b byte) []stream.Event {
		n := min(1+int(b&0x1f), len(events))
		batch := events[:n]
		events = events[n:]
		return batch
	}
	for len(plan) > 0 && len(events) > 0 {
		b := plan[0]
		plan = plan[1:]
		g := applyGroup{mode: b >> 6, checkpoint: b&0x20 != 0}
		g.batches = append(g.batches, take(b))
		for f := 1; g.mode >= 2 && f < int(g.mode) && len(plan) > 0 && len(events) > 0; f++ {
			g.batches = append(g.batches, take(plan[0]))
			plan = plan[1:]
		}
		groups = append(groups, g)
	}
	if len(events) > 0 {
		groups = append(groups, applyGroup{batches: [][]stream.Event{events}})
	}
	return groups
}

// wireBatch decodes events from their JSONL body, as a POST does.
func wireBatch(t *testing.T, events []stream.Event) *stream.Batch {
	t.Helper()
	var body bytes.Buffer
	if err := stream.EncodeJSONL(&body, events); err != nil {
		t.Fatal(err)
	}
	b := stream.GetBatch()
	if _, err := b.DecodeJSONLInto(&body); err != nil {
		t.Fatal(err)
	}
	return b
}

// applyCommit runs one group against eng.
func applyCommit(t *testing.T, eng *stream.Engine, g applyGroup) {
	t.Helper()
	if g.mode == 0 {
		if err := eng.Apply(g.batches[0]); err != nil {
			t.Fatal(err)
		}
		return
	}
	bs := make([]*stream.Batch, len(g.batches))
	for i, evs := range g.batches {
		bs[i] = wireBatch(t, evs)
	}
	for i, err := range stream.ApplyGroup(eng, bs) {
		if err != nil {
			t.Fatalf("caller %d of %d: %v", i, len(bs), err)
		}
	}
	for _, b := range bs {
		b.Release()
	}
}

// applyState is what batch-cut invariance compares: the state image and
// the engine and detector snapshots.
func applyState(t *testing.T, eng *stream.Engine) (image, snap []byte) {
	t.Helper()
	var img bytes.Buffer
	if _, err := eng.WriteState(&img); err != nil {
		t.Fatal(err)
	}
	s, err := json.Marshal(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d, err := json.Marshal(eng.Detector().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return img.Bytes(), append(append(s, '\n'), d...)
}

// sameState fails t, with the message format and args describe, unless
// got and want hold the same applyState; the snapshots' first difference
// is quoted.
func sameState(t *testing.T, got, want *stream.Engine, format string, args ...any) {
	t.Helper()
	gotImg, gotSnap := applyState(t, got)
	wantImg, wantSnap := applyState(t, want)
	if !bytes.Equal(gotSnap, wantSnap) {
		i := 0
		for i < min(len(gotSnap), len(wantSnap)) && gotSnap[i] == wantSnap[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf(format+": snapshots differ at byte %d:\n got: …%s\nwant: …%s", append(args, i,
			gotSnap[lo:min(i+80, len(gotSnap))], wantSnap[lo:min(i+80, len(wantSnap))])...)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatalf(format+": state images differ (%d vs %d bytes)", append(args, len(gotImg), len(wantImg))...)
	}
}

// FuzzEngineApply: however a stream is cut into batches and commit groups
// — single Apply calls, wire batches, groups of concurrent ApplyBatchTimed
// callers — the engine after every group holds the same state image and
// snapshots as one Apply of the same events. With durable set the engine
// journals to a store that checkpoints where the plan says, and a recovery
// from the store must reach the same state.
func FuzzEngineApply(f *testing.F) {
	f.Add(uint64(1), []byte(nil), false)
	f.Add(uint64(2), []byte{0x05, 0x45, 0x8a, 0x03, 0xc7, 0x02, 0x10, 0x61, 0x9f, 0x1f}, false)
	f.Add(uint64(3), []byte{0xff, 0x00, 0x3f, 0xc1, 0x81, 0x82, 0x40, 0xe4, 0x11, 0x12, 0x13, 0x27}, true)
	f.Add(uint64(4), bytes.Repeat([]byte{0x9f, 0x1f, 0x5f, 0xdf, 0x1f, 0x1f}, 12), true)
	f.Add(uint64(5), bytes.Repeat([]byte{0x00}, 40), false)
	// A detector that expired alerts once per commit group, not per
	// event, fails this plan's per-cut check, and the seed-4 entry its
	// recovery.
	f.Add(uint64(2), []byte("\xfb0A0070A00"), false)
	f.Fuzz(func(t *testing.T, seed uint64, plan []byte, durably bool) {
		events := applyStream(seed)
		eng := newApplyEngine(t)
		dir := t.TempDir()
		var st *durable.Store
		if durably {
			var err error
			if st, err = durable.Open(dir, durable.Options{SegmentBytes: applySegmentBytes}); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Recover(eng); err != nil {
				t.Fatal(err)
			}
			eng.SetJournal(st)
		}

		applied := 0
		for gi, g := range applyPlan(events, plan) {
			applyCommit(t, eng, g)
			for _, b := range g.batches {
				applied += len(b)
			}
			if st != nil && g.checkpoint {
				if _, err := st.Checkpoint(eng); err != nil {
					t.Fatal(err)
				}
			}
			ref := newApplyEngine(t)
			if err := ref.Apply(events[:applied]); err != nil {
				t.Fatal(err)
			}
			sameState(t, eng, ref, "after group %d (mode %d, %d batches, %d of %d events) the engine differs from one Apply",
				gi, g.mode, len(g.batches), applied, len(events))
		}

		if st != nil {
			rs, err := durable.Open(dir, durable.Options{SegmentBytes: applySegmentBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			rec := newApplyEngine(t)
			if _, err := rs.Recover(rec); err != nil {
				t.Fatal(err)
			}
			sameState(t, rec, eng, "the recovered engine differs from the live one")
		}
	})
}
