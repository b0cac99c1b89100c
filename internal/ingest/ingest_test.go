package ingest

import (
	"testing"
	"time"

	"failscope/internal/dcsim"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/ticketdb"
)

// genField generates a small field dataset once per test binary.
func genField(t *testing.T) (*dcsim.Output, dcsim.Config) {
	t.Helper()
	cfg := dcsim.SmallConfig()
	out, err := dcsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, cfg
}

func TestCollectJoinsAttributes(t *testing.T) {
	out, cfg := genField(t)
	opts := DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.SkipClassification = true
	col, err := Collect(out.Data, out.Tickets, out.Monitor, opts)
	if err != nil {
		t.Fatal(err)
	}
	if col.Classifier != nil {
		t.Fatal("classifier report present despite SkipClassification")
	}
	var usage, consol, onoff, ageKnown int
	for _, m := range col.Data.Machines {
		a := col.Attrs[m.ID]
		if m.Kind == model.Box {
			continue
		}
		if a.HasUsage {
			usage++
			if a.CPUUtil <= 0 || a.CPUUtil > 100 || a.MemUtil <= 0 || a.MemUtil > 100 {
				t.Fatalf("machine %s has out-of-range usage: %+v", m.ID, a)
			}
		}
		if m.Kind == model.VM {
			if a.HasConsolidation {
				consol++
				if a.AvgConsolidation < 1 {
					t.Fatalf("VM %s consolidation %v < 1", m.ID, a.AvgConsolidation)
				}
			}
			if a.HasOnOff {
				onoff++
			}
			if a.AgeKnown {
				ageKnown++
			}
		}
	}
	pmvm := col.Data.CountMachines(model.PM, 0) + col.Data.CountMachines(model.VM, 0)
	if usage < pmvm*9/10 {
		t.Errorf("usage coverage %d of %d machines", usage, pmvm)
	}
	vms := col.Data.CountMachines(model.VM, 0)
	if consol < vms*8/10 {
		t.Errorf("consolidation coverage %d of %d VMs", consol, vms)
	}
	if onoff != vms {
		t.Errorf("on/off coverage %d of %d VMs", onoff, vms)
	}
	// Roughly 75% of VMs should pass the age filter (§III.B).
	frac := float64(ageKnown) / float64(vms)
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("age-known fraction %.2f, want ≈0.75", frac)
	}
}

func TestCollectRestrictsToWindow(t *testing.T) {
	out, cfg := genField(t)
	opts := DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.SkipClassification = true
	// Narrow window: only the first quarter.
	opts.Observation = model.Window{
		Start: cfg.Observation.Start,
		End:   cfg.Observation.Start.Add(90 * 24 * time.Hour),
	}
	col, err := Collect(out.Data, out.Tickets, out.Monitor, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range col.Data.Tickets {
		if !opts.Observation.Contains(tk.Opened) {
			t.Fatalf("ticket %s outside the requested window", tk.ID)
		}
	}
	if len(col.Data.Tickets) >= len(out.Data.Tickets) {
		t.Fatal("window restriction did not reduce the ticket count")
	}
}

func TestClassificationQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("classification is expensive")
	}
	out, cfg := genField(t)
	opts := DefaultOptions(cfg.Observation, cfg.FineWindow)
	col, err := Collect(out.Data, out.Tickets, out.Monitor, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := col.Classifier
	if c == nil {
		t.Fatal("no classifier report")
	}
	if c.Accuracy < 0.9 {
		t.Errorf("overall accuracy %.3f", c.Accuracy)
	}
	// The paper reports 87%; the synthetic corpus should land in a broad
	// band around that.
	if c.CrashClassAccuracy < 0.70 {
		t.Errorf("crash-class accuracy %.3f", c.CrashClassAccuracy)
	}
	if c.CrashRecall < 0.9 || c.CrashPrecision < 0.9 {
		t.Errorf("crash recall/precision %.3f/%.3f", c.CrashRecall, c.CrashPrecision)
	}
	if c.TrainDocs == 0 || c.TestDocs == 0 {
		t.Errorf("degenerate split %d/%d", c.TrainDocs, c.TestDocs)
	}
}

func TestClassifyErrorsOnEmpty(t *testing.T) {
	store := ticketdb.NewStore()
	mon := monitordb.New(time.Date(2011, 7, 1, 0, 0, 0, 0, time.UTC), 2*365*24*time.Hour)
	obs := model.Window{
		Start: time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	data := model.NewDataset(obs, nil, nil, nil)
	opts := DefaultOptions(obs, obs)
	if _, err := Collect(data, store, mon, opts); err == nil {
		t.Fatal("empty ticket population accepted with classification on")
	}
	opts.SkipClassification = true
	if _, err := Collect(data, store, mon, opts); err != nil {
		t.Fatalf("empty dataset should be fine without classification: %v", err)
	}
}

func TestLabelOf(t *testing.T) {
	if got := labelOf(model.Ticket{IsCrash: false}); got != 0 {
		t.Errorf("background label %d", got)
	}
	if got := labelOf(model.Ticket{IsCrash: true, Class: model.ClassPower}); got != int(model.ClassPower) {
		t.Errorf("crash label %d", got)
	}
}

func TestUsePredictedLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("classification is expensive")
	}
	out, cfg := genField(t)
	opts := DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.UsePredictedLabels = true
	col, err := Collect(out.Data, out.Tickets, out.Monitor, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Tickets must now carry predicted labels; the crash-ticket count
	// should be close to (but not necessarily equal to) the truth.
	truth := 0
	for _, tk := range out.Tickets.All() {
		if tk.IsCrash {
			truth++
		}
	}
	got := len(col.Data.CrashTickets())
	if got == 0 {
		t.Fatal("predicted labels produced no crash tickets")
	}
	ratio := float64(got) / float64(truth)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("predicted crash count %d vs truth %d (ratio %.2f)", got, truth, ratio)
	}
	// And the relabeled dataset still validates.
	if err := col.Data.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineClassifierMatchesBatch verifies the streaming classifier is
// the batch model frozen: two independent trainings from the same options
// agree on every held-out ticket, and OnlineClassifier.Predict implements
// exactly the batch two-stage cascade.
func TestOnlineClassifierMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier training is expensive")
	}
	out, cfg := genField(t)
	opts := DefaultOptions(cfg.Observation, cfg.FineWindow)
	tickets := out.Tickets.InWindow(cfg.Observation)

	oc, err := TrainOnlineClassifier(tickets, opts)
	if err != nil {
		t.Fatal(err)
	}
	stage1, stage2, sp, err := trainStages(tickets, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	mismatches, hits := 0, 0
	for i, text := range sp.testTexts {
		want := 0
		if stage1.Predict(text) == 1 {
			want = stage2.Predict(text)
		}
		if got := oc.Predict(text); got != want {
			mismatches++
		} else if got == sp.testLabels[i] {
			hits++
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d of %d test predictions differ between online and batch models",
			mismatches, len(sp.testTexts))
	}
	if acc := float64(hits) / float64(len(sp.testTexts)); acc < 0.85 {
		t.Errorf("online classifier test accuracy %.3f, want ≥0.85", acc)
	}
}
