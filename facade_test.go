package failscope_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"failscope"
)

func TestPaperConfigIsValid(t *testing.T) {
	if err := failscope.PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRejectsInvalidConfig(t *testing.T) {
	cfg := failscope.PaperConfig()
	cfg.Systems = nil
	if _, err := failscope.Generate(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSmallStudySmallerThanPaper(t *testing.T) {
	small := failscope.SmallStudy()
	paper := failscope.PaperStudy()
	var smallMachines, paperMachines int
	for _, s := range small.Generator.Systems {
		smallMachines += s.PMs + s.VMs
	}
	for _, s := range paper.Generator.Systems {
		paperMachines += s.PMs + s.VMs
	}
	if smallMachines*4 > paperMachines {
		t.Fatalf("small study not small: %d vs %d machines", smallMachines, paperMachines)
	}
}

func TestMonitorRoundTripThroughFacade(t *testing.T) {
	study := failscope.SmallStudy()
	field, err := failscope.Generate(study.Generator)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := failscope.WriteMonitor(&buf, field.Monitor); err != nil {
		t.Fatal(err)
	}
	got, err := failscope.ReadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Machines()) != len(field.Monitor.Machines()) {
		t.Fatalf("machines %d != %d", len(got.Machines()), len(field.Monitor.Machines()))
	}
}

func TestCollectDatasetMatchesCollect(t *testing.T) {
	study := failscope.SmallStudy()
	study.Collect.SkipClassification = true
	field, err := failscope.Generate(study.Generator)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := failscope.Collect(field, study.Collect)
	if err != nil {
		t.Fatal(err)
	}
	viaDataset, err := failscope.CollectDataset(field.Data, field.Data.Tickets, field.Monitor, study.Collect)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Data.Tickets) != len(viaDataset.Data.Tickets) {
		t.Fatalf("ticket counts differ: %d vs %d", len(direct.Data.Tickets), len(viaDataset.Data.Tickets))
	}
}

func TestScaleDistributionThroughFacade(t *testing.T) {
	res := paperResult(t)
	best, ok := res.Report.InterFailureVM.Fits.Best()
	if !ok {
		t.Fatal("no fit")
	}
	scaled, err := failscope.ScaleDistribution(best.Dist, 24)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled.Mean()-24*best.Dist.Mean()) > 1e-9 {
		t.Fatalf("scaled mean %v", scaled.Mean())
	}
	if _, err := failscope.ScaleDistribution(nil, 24); err == nil {
		t.Fatal("nil distribution accepted")
	}
}

func TestSimulateServiceThroughFacade(t *testing.T) {
	res := paperResult(t)
	vmFit, _ := res.Report.InterFailureVM.Fits.Best()
	repairFit, _ := res.Report.RepairVM.Fits.Best()
	failHours, err := failscope.ScaleDistribution(vmFit.Dist, 24)
	if err != nil {
		t.Fatal(err)
	}
	cfg := failscope.FTConfig{
		Replicas: 2, Hosts: 4,
		VMFail: failHours, VMRepair: repairFit.Dist,
		HostFail: failHours, HostRepair: repairFit.Dist,
		HorizonHours: 365 * 24, Runs: 20, Seed: 3,
	}
	results, err := failscope.ComparePlacements(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spread := results[failscope.PlacementSpread]
	pack := results[failscope.PlacementPack]
	if spread.Availability < pack.Availability {
		t.Fatalf("spread %.5f below pack %.5f", spread.Availability, pack.Availability)
	}
	if _, err := failscope.SimulateService(failscope.FTConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestPredictionThroughFacade(t *testing.T) {
	res := paperResult(t)
	in := failscope.AnalysisInput{Data: res.Collection.Data, Attrs: res.Collection.Attrs}
	obs := res.Collection.Data.Observation
	split := obs.Start.Add(obs.Duration() / 2)

	ds, err := failscope.BuildPredictionDataset(in, split, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := failscope.TrainPredictor(ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	learned := failscope.EvaluatePredictor(m, ds.Test)
	history := failscope.EvaluatePredictor(failscope.HistoryBaseline(), ds.Test)
	if learned.AUC <= 0.55 {
		t.Errorf("learned AUC %.3f", learned.AUC)
	}
	if history.AUC <= 0.5 {
		t.Errorf("history AUC %.3f — failure history should predict failures", history.AUC)
	}
	// The factor ranking must put failure history on top (§IV.D).
	top := m.TopFactors(failscope.PredictionFeatureNames())
	if top[0] != "past_failed" && top[0] != "past_failures" && top[1] != "past_failed" && top[1] != "past_failures" {
		t.Errorf("failure history not among the top factors: %v", top[:3])
	}

	if _, err := failscope.BuildPredictionDataset(in, obs.Start, 0.6); err == nil {
		t.Error("split at window edge accepted")
	}
	if _, err := failscope.TrainPredictor(nil); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestNewEmptyMonitor(t *testing.T) {
	epoch := time.Date(2011, 7, 1, 0, 0, 0, 0, time.UTC)
	db := failscope.NewEmptyMonitor(epoch, 2*365*24*time.Hour)
	if !db.Epoch().Equal(epoch) {
		t.Fatal("epoch wrong")
	}
	if len(db.Machines()) != 0 {
		t.Fatal("not empty")
	}
}

func TestPredictionFeatureNamesCopied(t *testing.T) {
	a := failscope.PredictionFeatureNames()
	a[0] = "mutated"
	if failscope.PredictionFeatureNames()[0] == "mutated" {
		t.Fatal("PredictionFeatureNames exposes internal state")
	}
}

// TestStreamEventsRoundTripThroughFacade: the small study's event stream
// survives WriteStreamEvents → ReadStreamEvents unchanged, a line the
// zero-copy decoder hands to encoding/json decodes as json.Unmarshal
// would, and a decode error names its line.
func TestStreamEventsRoundTripThroughFacade(t *testing.T) {
	field, err := failscope.Generate(failscope.SmallStudy().Generator)
	if err != nil {
		t.Fatal(err)
	}
	events := failscope.StreamEventsFromField(field)
	var buf bytes.Buffer
	if err := failscope.WriteStreamEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := failscope.ReadStreamEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("round trip of %d events diverged (got %d)", len(events), len(back))
	}

	// A non-UTC offset is outside the fast path's certainty.
	line := `{"type":"advance","time":"2012-07-01T02:00:00+02:00"}`
	var want failscope.StreamEvent
	if err := json.Unmarshal([]byte(line), &want); err != nil {
		t.Fatal(err)
	}
	got, err := failscope.ReadStreamEvents(strings.NewReader(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("fallback line decoded to %+v, want %+v", got, want)
	}

	bad := line + "\n" + line + "\n{\"type\":\n"
	if _, err := failscope.ReadStreamEvents(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed third line: err = %v, want one naming line 3", err)
	}
}
