package stream

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"failscope/internal/detect"
	"failscope/internal/model"
	"failscope/internal/monitordb"
)

var fuzzStart = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)

// newFuzzEngine is a small engine with monitoring and detection.
func newFuzzEngine(t testing.TB) *Engine {
	t.Helper()
	win := model.Window{Start: fuzzStart, End: fuzzStart.AddDate(0, 6, 0)}
	eng, err := NewEngine(Config{
		Observation:      win,
		FineWindow:       win,
		MonitorEpoch:     fuzzStart,
		MonitorRetention: 200 * 24 * time.Hour,
		Detector:         detect.New(detect.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// fuzzBatches is a small stream touching every part of the image: both
// machine kinds on two hosts, crash bursts that raise and confirm alerts,
// an incident, power events, placements, grid-cadence and off-grid
// samples, and a watermark advance.
func fuzzBatches() [][]Event {
	at := func(d int, h int) *time.Time {
		t := fuzzStart.AddDate(0, 0, d).Add(time.Duration(h) * time.Hour)
		return &t
	}
	on, off := true, false
	var roster []Event
	for i, id := range []model.MachineID{"S1-PM-0001", "S2-PM-0002", "S1-VM-0003", "S2-VM-0004"} {
		m := &model.Machine{ID: id, Kind: model.PM, System: model.System(1 + i%2),
			Capacity: model.Capacity{CPUs: 8, MemoryGB: 32, DiskGB: 500, Disks: 2},
			Created:  fuzzStart.AddDate(-1, 0, 0)}
		if i >= 2 {
			m.Kind, m.HostID = model.VM, []model.MachineID{"S1-PM-0001", "S2-PM-0002"}[i-2]
		}
		roster = append(roster, Event{Type: "machine", Machine: m})
	}
	batches := [][]Event{roster}
	for d := 0; d < 40; d++ {
		var b []Event
		for h := 0; h < 24; h += 6 {
			v := 40 + float64((d*h)%7)
			if d >= 30 {
				v = 95 // a sustained shift: an anomaly alert
			}
			b = append(b, Event{Type: "sample", ServerID: "S1-VM-0003", Metric: monitordb.MetricCPUUtil,
				Time: at(d, h), Value: v})
		}
		if d >= 12 && d < 16 || d == 25 {
			// A crash burst raises a recurrence alert; the crash on day 25
			// confirms it.
			b = append(b, Event{Type: "ticket", Ticket: &model.Ticket{
				ID: fmt.Sprintf("B-%d", d), ServerID: "S2-PM-0002", System: 2,
				Opened: *at(d, 5), Closed: *at(d, 7), IsCrash: true, Class: model.ClassHardware,
			}})
		}
		b = append(b, Event{Type: "sample", ServerID: "S2-VM-0004", Metric: monitordb.MetricNetKbps,
			Time: at(d, d%5), Value: float64(100 + d)})
		if d%3 == 0 {
			srv := []model.MachineID{"S1-PM-0001", "S1-VM-0003", "S2-VM-0004"}[d%9/3]
			b = append(b, Event{Type: "ticket", Ticket: &model.Ticket{
				ID: fmt.Sprintf("T-%d", d), ServerID: srv, System: 1,
				Opened: *at(d, 3), Closed: at(d, 9).Add(time.Duration(d) * time.Minute),
				IsCrash: d%2 == 0, Class: model.FailureClass(1 + d%4),
			}})
		}
		switch d {
		case 5:
			b = append(b, Event{Type: "placement", ServerID: "S1-VM-0003", Host: "S1-PM-0001", Time: at(d, 0)},
				Event{Type: "placement", ServerID: "S2-VM-0004", Host: "S2-PM-0002", Time: at(d, 0)})
		case 10:
			b = append(b, Event{Type: "power", ServerID: "S1-VM-0003", Time: at(d, 1), On: &off},
				Event{Type: "power", ServerID: "S1-VM-0003", Time: at(d, 2), On: &on})
		case 20:
			b = append(b, Event{Type: "incident", Incident: &model.Incident{
				ID: "I-1", Class: model.ClassNetwork, Time: *at(d, 4),
				Servers: []model.MachineID{"S1-PM-0001", "S1-VM-0003"}}})
		case 39:
			b = append(b, Event{Type: "advance", Time: at(d+30, 0)})
		}
		batches = append(batches, b)
	}
	return batches
}

// FuzzRestoreState feeds mutated engine images to RestoreState. Each must
// be refused with an error, or restore an engine whose image is the input
// (up to trailing bytes the self-delimiting image does not read): one
// state, one image. It must never panic, and no decoded count or length
// may allocate past its bound.
func FuzzRestoreState(f *testing.F) {
	eng := newFuzzEngine(f)
	for i, b := range fuzzBatches() {
		if err := eng.Apply(b); err != nil {
			f.Fatal(err)
		}
		if i%8 == 0 || i == 40 {
			var img bytes.Buffer
			if _, err := eng.WriteState(&img); err != nil {
				f.Fatal(err)
			}
			f.Add(img.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		eng := newFuzzEngine(t)
		if err := eng.RestoreState(bytes.NewReader(img)); err != nil {
			return
		}
		var again bytes.Buffer
		if _, err := eng.WriteState(&again); err != nil {
			t.Fatalf("restored engine does not write: %v", err)
		}
		if !bytes.HasPrefix(img, again.Bytes()) {
			t.Fatalf("image of %d bytes restored to an engine whose image differs (%d bytes)", len(img), again.Len())
		}
	})
}
