// Benchmarks regenerating every table and figure of the paper. Each
// benchmark measures the corresponding analysis on the calibrated
// paper-scale dataset and prints the reproduced rows once, so that
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// yields both the performance profile and the full reproduction record
// that EXPERIMENTS.md is built from. The ablation benchmarks at the bottom
// isolate the design choices DESIGN.md calls out.
package failscope

import (
	"fmt"
	"sync"
	"testing"

	"failscope/internal/core"
	"failscope/internal/dcsim"
	"failscope/internal/dist"
	"failscope/internal/ftsim"
	"failscope/internal/ingest"
	"failscope/internal/model"
	"failscope/internal/predict"
	"failscope/internal/report"
	"failscope/internal/textmine"
	"failscope/internal/xrand"
)

// benchState generates the canonical paper-scale dataset once.
var (
	benchOnce sync.Once
	benchIn   core.Input
	benchErr  error
)

func benchInput(b *testing.B) core.Input {
	b.Helper()
	benchOnce.Do(func() {
		cfg := dcsim.PaperConfig()
		out, err := dcsim.Generate(cfg)
		if err != nil {
			benchErr = err
			return
		}
		opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
		opts.SkipClassification = true
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			benchErr = err
			return
		}
		benchIn = core.Input{Data: col.Data, Attrs: col.Attrs}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIn
}

// printOnce guards the one-time table dump of each benchmark.
var printed sync.Map

func printSection(name, text string) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s", name, text)
	}
}

func BenchmarkTableII_DatasetStats(b *testing.B) {
	in := benchInput(b)
	var rows []core.SystemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.DatasetStats(in)
	}
	b.StopTimer()
	printSection("Table II (paper: 2759 crash tickets over 9421 machines)", report.DatasetStats(rows))
	b.ReportMetric(float64(rows[len(rows)-1].CrashTickets), "crash_tickets")
}

func BenchmarkFig1_ClassDistribution(b *testing.B) {
	in := benchInput(b)
	var rows []core.ClassShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.ClassDistribution(in)
	}
	b.StopTimer()
	printSection("Fig. 1 (paper: other 53%, SW+reboot dominate, Sys V power 29%)", report.ClassDistribution(rows))
	for _, r := range rows {
		if r.System == 0 && r.Class == model.ClassOther {
			b.ReportMetric(r.Share, "other_share")
		}
	}
}

func BenchmarkFig2_WeeklyFailureRates(b *testing.B) {
	in := benchInput(b)
	var rows []core.RateSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.WeeklyFailureRates(in)
	}
	b.StopTimer()
	printSection("Fig. 2 (paper: PM ≈ 0.005, VM ≈ 0.003, PM ≈ 40% higher)", report.WeeklyRates(rows))
	for _, r := range rows {
		if r.System == 0 {
			switch r.Kind {
			case model.PM:
				b.ReportMetric(r.Summary.Mean, "pm_weekly_rate")
			case model.VM:
				b.ReportMetric(r.Summary.Mean, "vm_weekly_rate")
			}
		}
	}
}

func BenchmarkFig3_InterFailureCDF(b *testing.B) {
	in := benchInput(b)
	var pm, vm core.InterFailureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm = core.InterFailure(in, model.PM)
		vm = core.InterFailure(in, model.VM)
	}
	b.StopTimer()
	printSection("Fig. 3 (paper: Gamma best for both; VM mean 37.22 d)",
		report.InterFailure(pm)+report.InterFailure(vm))
	b.ReportMetric(vm.Summary.Mean, "vm_gap_mean_days")
}

func BenchmarkTableIII_InterFailureByClass(b *testing.B) {
	in := benchInput(b)
	var rows []core.ClassGapStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.InterFailureByClass(in)
	}
	b.StopTimer()
	printSection("Table III (paper: SW shortest — operator 2.84 d, server 21.6 d; Net longest)",
		report.InterFailureByClass(rows))
}

func BenchmarkFig4_RepairTimeCDF(b *testing.B) {
	in := benchInput(b)
	var pm, vm core.RepairResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm = core.RepairTimes(in, model.PM)
		vm = core.RepairTimes(in, model.VM)
	}
	b.StopTimer()
	printSection("Fig. 4 (paper: Log-normal best; PM 38.5 h vs VM 19.6 h)",
		report.Repair(pm)+report.Repair(vm))
	b.ReportMetric(pm.Summary.Mean, "pm_repair_mean_h")
	b.ReportMetric(vm.Summary.Mean, "vm_repair_mean_h")
}

func BenchmarkTableIV_RepairByClass(b *testing.B) {
	in := benchInput(b)
	var rows []core.ClassRepairStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.RepairByClass(in)
	}
	b.StopTimer()
	printSection("Table IV (paper: HW 80.1/8.28 h, Net 67.6/8.97, Power 12.17/0.83, Reboot 18.03/2.27, SW 30.0/22.37)",
		report.RepairByClass(rows))
}

func BenchmarkFig5_RecurrentProbabilities(b *testing.B) {
	in := benchInput(b)
	var pm, vm core.RecurrenceResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm = core.Recurrence(in, model.PM, 0)
		vm = core.Recurrence(in, model.VM, 0)
	}
	b.StopTimer()
	printSection("Fig. 5 (paper: weekly recurrent ≈ .22 PM / .16 VM, sublinear in window)",
		report.Recurrence(pm, vm))
	b.ReportMetric(pm.WithinWeek, "pm_recurrent_week")
	b.ReportMetric(vm.WithinWeek, "vm_recurrent_week")
}

func BenchmarkTableV_RandomVsRecurrent(b *testing.B) {
	in := benchInput(b)
	var rows []core.RandomVsRecurrent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.RandomVsRecurrentTable(in)
	}
	b.StopTimer()
	printSection("Table V (paper: ratios 35.5x PM / 42.1x VM overall)",
		report.RandomVsRecurrent(rows))
	for _, r := range rows {
		if r.System == 0 && r.Kind == model.PM {
			b.ReportMetric(r.Ratio, "pm_ratio")
		}
		if r.System == 0 && r.Kind == model.VM {
			b.ReportMetric(r.Ratio, "vm_ratio")
		}
	}
}

func BenchmarkTableVI_SpatialIncidents(b *testing.B) {
	in := benchInput(b)
	var res core.SpatialResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = core.Spatial(in)
	}
	b.StopTimer()
	printSection("Table VI (paper: 78% single-server; dependent VM 26% > PM 16%; max 34)",
		report.Spatial(res))
	b.ReportMetric(res.DependentVMShare, "dependent_vm_share")
	b.ReportMetric(res.DependentPMShare, "dependent_pm_share")
}

func BenchmarkTableVII_ServersPerIncident(b *testing.B) {
	in := benchInput(b)
	var rows []core.ClassSpatialStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.ServersPerIncidentByClass(in)
	}
	b.StopTimer()
	printSection("Table VII (paper: power mean 2.7/max 21; reboot 1.1/15; SW 1.7/10)",
		report.SpatialByClass(rows))
}

func BenchmarkFig6_AgeAnalysis(b *testing.B) {
	in := benchInput(b)
	var res core.AgeResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = core.AgeAnalysis(in, 24)
	}
	b.StopTimer()
	printSection("Fig. 6 (paper: CDF near diagonal, weak positive trend, no bathtub)", report.Age(res))
	b.ReportMetric(res.KSUniform, "ks_uniform")
	b.ReportMetric(res.BathtubScore, "bathtub_score")
}

// capacityPanel runs one Fig. 7 panel as its own benchmark.
func capacityPanel(b *testing.B, key, paper string) {
	b.Helper()
	in := benchInput(b)
	var panels map[string]core.BinnedRates
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels, err = core.CapacityStudy(in)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	br := panels[key]
	printSection("Fig. 7 "+key+" (paper: "+paper+")", report.BinnedRates("weekly failure rate vs "+key, br))
	b.ReportMetric(br.IncrementFactor, "increment_factor")
	b.ReportMetric(br.Spearman, "spearman")
}

func BenchmarkFig7a_CPUCounts(b *testing.B) {
	capacityPanel(b, "pm_cpu", "PM 5.5x rising to 24 CPUs then dropping; VM 2.5x")
}

func BenchmarkFig7a_CPUCountsVM(b *testing.B) {
	capacityPanel(b, "vm_cpu", "VM 2.5x over 1-8 vCPUs")
}

func BenchmarkFig7b_MemorySize(b *testing.B) {
	capacityPanel(b, "pm_mem", "bathtub, PM span 5x")
}

func BenchmarkFig7b_MemorySizeVM(b *testing.B) {
	capacityPanel(b, "vm_mem", "bathtub, VM span 3x, dip at 4-8 GB")
}

func BenchmarkFig7c_DiskCapacity(b *testing.B) {
	capacityPanel(b, "vm_diskcap", "rises to 32 GB then flat ≈0.0025 — weakest VM factor")
}

func BenchmarkFig7d_DiskCount(b *testing.B) {
	capacityPanel(b, "vm_diskcount", "~10x from 1 to 6 disks — strongest VM factor")
}

// usagePanel runs one Fig. 8 panel as its own benchmark.
func usagePanel(b *testing.B, key, paper string) {
	b.Helper()
	in := benchInput(b)
	var panels map[string]core.BinnedRates
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels, err = core.UsageStudy(in)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	br := panels[key]
	printSection("Fig. 8 "+key+" (paper: "+paper+")", report.BinnedRates("weekly failure rate vs "+key, br))
	b.ReportMetric(br.IncrementFactor, "increment_factor")
	b.ReportMetric(br.Spearman, "spearman")
}

func BenchmarkFig8a_CPUUsage(b *testing.B) {
	usagePanel(b, "vm_cpuutil", "VM rises ~10x over 0-30%; PM bathtub")
}

func BenchmarkFig8a_CPUUsagePM(b *testing.B) {
	usagePanel(b, "pm_cpuutil", "PM decreasing over the populated range, bathtub overall")
}

func BenchmarkFig8b_MemoryUsage(b *testing.B) {
	usagePanel(b, "pm_memutil", "inverted bathtub, stronger for PMs")
}

func BenchmarkFig8b_MemoryUsageVM(b *testing.B) {
	usagePanel(b, "vm_memutil", "inverted bathtub, milder")
}

func BenchmarkFig8c_DiskUsage(b *testing.B) {
	usagePanel(b, "vm_diskutil", "mild increase 0.001 → 0.003")
}

func BenchmarkFig8d_NetworkUsage(b *testing.B) {
	usagePanel(b, "vm_net", "rises to a knee at 64 Kbps then falls")
}

func BenchmarkFig9_Consolidation(b *testing.B) {
	in := benchInput(b)
	var br core.BinnedRates
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err = core.Consolidation(in)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printSection("Fig. 9 (paper: failure rate decreases significantly with consolidation)",
		report.BinnedRates("weekly failure rate vs consolidation level", br))
	b.ReportMetric(br.Spearman, "spearman")
}

func BenchmarkFig10_OnOffFrequency(b *testing.B) {
	in := benchInput(b)
	var br core.BinnedRates
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err = core.OnOff(in)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printSection("Fig. 10 (paper: rises to ~2 on/off per month, no clear trend beyond)",
		report.BinnedRates("weekly failure rate vs on/off per month", br))
}

// BenchmarkTicketClassification measures the §III.A k-means pipeline
// (paper: 87% accuracy).
func BenchmarkTicketClassification(b *testing.B) {
	cfg := dcsim.PaperConfig()
	out, err := dcsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	var rep *ingest.ClassifierReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			b.Fatal(err)
		}
		rep = col.Classifier
	}
	b.StopTimer()
	printSection("§III.A classification (paper: 87% accuracy)", fmt.Sprintf(
		"overall accuracy  %.1f%%\ncrash-class accuracy %.1f%% (paper: 87%%)\ncrash recall %.1f%% precision %.1f%%\n",
		100*rep.Accuracy, 100*rep.CrashClassAccuracy, 100*rep.CrashRecall, 100*rep.CrashPrecision))
	b.ReportMetric(rep.CrashClassAccuracy, "crash_class_accuracy")
}

// BenchmarkPrediction measures the failure-prediction extension: build the
// mid-year dataset, train the logistic model, evaluate against baselines.
func BenchmarkPrediction(b *testing.B) {
	in := benchInput(b)
	obs := in.Data.Observation
	split := obs.Start.Add(obs.Duration() / 2)
	var learned, history predict.Evaluation
	var m *predict.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := predict.BuildDataset(in, split, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		m, err = predict.TrainLogistic(ds.Train)
		if err != nil {
			b.Fatal(err)
		}
		learned = predict.Evaluate(m, ds.Test)
		history = predict.Evaluate(predict.HistoryBaseline(), ds.Test)
	}
	b.StopTimer()
	printSection("Extension: failure prediction (mid-year split)", fmt.Sprintf(
		"logistic: AUC %.3f precision@10%% %.3f lift %.1fx\nhistory:  AUC %.3f precision@10%% %.3f lift %.1fx\ntop factors: %v\n",
		learned.AUC, learned.PrecisionAt10, learned.Lift10,
		history.AUC, history.PrecisionAt10, history.Lift10,
		m.TopFactors(predict.FeatureNames)[:5]))
	b.ReportMetric(learned.AUC, "auc")
	b.ReportMetric(learned.Lift10, "lift10")
}

// BenchmarkCensoredInterFailureFit measures the right-censored fit that
// corrects the finite-window bias of Fig. 3.
func BenchmarkCensoredInterFailureFit(b *testing.B) {
	in := benchInput(b)
	var naiveMean, censMean, censoredShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample, _ := core.InterFailureCensored(in, model.VM)
		naive, err := dist.FitGamma(sample.Observed)
		if err != nil {
			b.Fatal(err)
		}
		censored, err := dist.FitGammaCensored(sample)
		if err != nil {
			b.Fatal(err)
		}
		naiveMean = naive.Mean()
		censMean = censored.Mean()
		censoredShare = float64(len(sample.Censored)) / float64(sample.N())
	}
	b.StopTimer()
	printSection("Extension: censored inter-failure fit (finite-window bias correction)",
		fmt.Sprintf("Gamma fit to VM gaps: naive mean %.1f d; right-censored mean %.1f d (%.0f%% of spells censored)\n"+
			"the one-year window hides the long gaps; the censored likelihood recovers them.\n",
			naiveMean, censMean, 100*censoredShare))
	b.ReportMetric(censMean, "censored_mean_days")
}

// BenchmarkExtensionAgeHazard measures the exposure-normalized hazard
// curve — the statistically clean version of Fig. 6.
func BenchmarkExtensionAgeHazard(b *testing.B) {
	in := benchInput(b)
	var res core.HazardResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = core.AgeHazard(in, 60, 730)
	}
	b.StopTimer()
	printSection("Extension: exposure-normalized age hazard (no bathtub expected)",
		report.Hazard(res))
	b.ReportMetric(res.BathtubScore, "bathtub_score")
	b.ReportMetric(res.TrendSlope, "trend_slope")
}

// BenchmarkExtensionPlacement runs the fault-tolerance simulation: spread
// vs pack placement under the fitted failure models.
func BenchmarkExtensionPlacement(b *testing.B) {
	in := benchInput(b)
	vm := core.InterFailure(in, model.VM)
	repair := core.RepairTimes(in, model.VM)
	vmFit, ok1 := vm.Fits.Best()
	repairFit, ok2 := repair.Fits.Best()
	if !ok1 || !ok2 {
		b.Fatal("missing fits")
	}
	failHours, err := dist.NewScaled(vmFit.Dist, 24)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ftsim.Config{
		Replicas: 3, Hosts: 8,
		VMFail: failHours, VMRepair: repairFit.Dist,
		HostFail: failHours, HostRepair: repairFit.Dist,
		HorizonHours: 5 * 365 * 24, Runs: 100, Seed: 7,
	}
	var results map[ftsim.Placement]ftsim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err = ftsim.Compare(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	spread, pack := results[ftsim.Spread], results[ftsim.Pack]
	printSection("Extension: replica placement under correlated failures",
		fmt.Sprintf("spread: availability %.5f (%.1f h down / 5 yr)\npack:   availability %.5f (%.1f h down / 5 yr)\n",
			spread.Availability, spread.DowntimeHoursPerRun,
			pack.Availability, pack.DowntimeHoursPerRun))
	b.ReportMetric(spread.Availability, "spread_availability")
	b.ReportMetric(pack.Availability, "pack_availability")
}

// BenchmarkExtensionFleetBurstiness measures the fleet-level temporal
// clustering view (index of dispersion + autocorrelation) and the
// per-class recurrence table.
func BenchmarkExtensionFleetBurstiness(b *testing.B) {
	in := benchInput(b)
	var series core.WeeklySeries
	var classes []core.ClassRecurrence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = core.WeeklyFailureSeries(in, 0)
		classes = core.RecurrenceByClass(in, 0)
	}
	b.StopTimer()
	printSection("Extension: fleet-level burstiness and per-class recurrence",
		report.FleetSeries(series)+report.ClassRecurrences(classes))
	b.ReportMetric(series.IndexOfDispersion, "index_of_dispersion")
}

// --- Pipeline performance benchmarks -----------------------------------

func BenchmarkGenerate(b *testing.B) {
	cfg := dcsim.PaperConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dcsim.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel pipeline benchmarks ---------------------------------------
//
// Every stage produces byte-identical output at any worker count (see
// TestParallelStudyByteIdentical), so these measure pure speedup: the
// _Parallel1 variants are the sequential reference, _Parallel4 a fixed
// four-worker pool, _ParallelMax one worker per CPU.

func benchStudyRun(b *testing.B, parallelism int) {
	b.Helper()
	study := SmallStudy().WithParallelism(parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyRun_Parallel1(b *testing.B)   { benchStudyRun(b, 1) }
func BenchmarkStudyRun_Parallel4(b *testing.B)   { benchStudyRun(b, 4) }
func BenchmarkStudyRun_ParallelMax(b *testing.B) { benchStudyRun(b, 0) }

func benchGenerateParallel(b *testing.B, parallelism int) {
	b.Helper()
	cfg := dcsim.SmallConfig()
	cfg.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcsim.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate_Parallel1(b *testing.B)   { benchGenerateParallel(b, 1) }
func BenchmarkGenerate_Parallel4(b *testing.B)   { benchGenerateParallel(b, 4) }
func BenchmarkGenerate_ParallelMax(b *testing.B) { benchGenerateParallel(b, 0) }

// smallField caches a small-scale field dataset for the stage benchmarks.
var (
	smallFieldOnce sync.Once
	smallFieldOut  *dcsim.Output
	smallFieldErr  error
)

func smallField(b *testing.B) *dcsim.Output {
	b.Helper()
	smallFieldOnce.Do(func() {
		smallFieldOut, smallFieldErr = dcsim.Generate(dcsim.SmallConfig())
	})
	if smallFieldErr != nil {
		b.Fatal(smallFieldErr)
	}
	return smallFieldOut
}

// benchKMeans measures the clustering kernel on the real ticket corpus.
func benchKMeans(b *testing.B, parallelism int) {
	b.Helper()
	out := smallField(b)
	cfg := dcsim.SmallConfig()
	tickets := out.Tickets.InWindow(cfg.Observation)
	docs := make([][]string, len(tickets))
	for i, t := range tickets {
		docs[i] = textmine.Tokenize(t.Description + " " + t.Resolution)
	}
	vocab := textmine.BuildVocabulary(docs, 2)
	vectors := make([]textmine.SparseVector, len(docs))
	for i, d := range docs {
		vectors[i] = vocab.Vectorize(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := textmine.KMeans(vectors, vocab.Size(), 32, 20, xrand.New(1), parallelism, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans_Parallel1(b *testing.B)   { benchKMeans(b, 1) }
func BenchmarkKMeans_Parallel4(b *testing.B)   { benchKMeans(b, 4) }
func BenchmarkKMeans_ParallelMax(b *testing.B) { benchKMeans(b, 0) }

// benchJoin measures the collection pipeline without classification — the
// monitoring join dominates.
func benchJoin(b *testing.B, parallelism int) {
	b.Helper()
	out := smallField(b)
	cfg := dcsim.SmallConfig()
	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.SkipClassification = true
	opts.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoin_Parallel1(b *testing.B)   { benchJoin(b, 1) }
func BenchmarkJoin_Parallel4(b *testing.B)   { benchJoin(b, 4) }
func BenchmarkJoin_ParallelMax(b *testing.B) { benchJoin(b, 0) }

func BenchmarkCollect(b *testing.B) {
	cfg := dcsim.PaperConfig()
	out, err := dcsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.SkipClassification = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeFull(b *testing.B) {
	in := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationClassifier compares the two-stage k-means pipeline with
// the rule-based keyword baseline on the same ticket stream.
func BenchmarkAblationClassifier(b *testing.B) {
	cfg := dcsim.PaperConfig()
	out, err := dcsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tickets := out.Tickets.InWindow(cfg.Observation)
	texts := make([]string, len(tickets))
	labels := make([]int, len(tickets))
	for i, t := range tickets {
		texts[i] = t.Description + " " + t.Resolution
		if t.IsCrash {
			labels[i] = int(t.Class)
		}
	}
	keyword := &textmine.KeywordClassifier{
		Default: 0,
		Rules: []textmine.KeywordRule{
			{Label: int(model.ClassHardware), Keywords: []string{"disk", "psu", "raid", "dimm", "motherboard", "chassis"}},
			{Label: int(model.ClassNetwork), Keywords: []string{"switch", "vlan", "nic", "uplink", "routing", "connectivity"}},
			{Label: int(model.ClassSoftware), Keywords: []string{"os", "kernel", "middleware", "deadlock", "hung", "panic"}},
			{Label: int(model.ClassPower), Keywords: []string{"pdu", "ups", "breaker", "outage", "electrical", "feeds"}},
			{Label: int(model.ClassReboot), Keywords: []string{"rebooted", "restarted", "unexpectedly", "bounced", "recycled"}},
			{Label: int(model.ClassOther), Keywords: []string{"unreachable", "down", "crashed", "unavailable"}},
		},
	}
	var cm *textmine.ConfusionMatrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, err = keyword.Evaluate(texts, labels)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Crash-class accuracy of the keyword baseline.
	var crashTotal, crashHit int
	for key, n := range cm.Counts {
		if key[0] > 0 {
			crashTotal += n
			if key[0] == key[1] {
				crashHit += n
			}
		}
	}
	acc := float64(crashHit) / float64(crashTotal)
	printSection("Ablation: keyword baseline vs k-means (k-means reaches ~90%)",
		fmt.Sprintf("keyword baseline crash-class accuracy: %.1f%%\n", 100*acc))
	b.ReportMetric(acc, "keyword_crash_class_accuracy")
}

// BenchmarkAblationInterFailureFit reports the full model-selection table,
// the paper's Gamma-vs-Weibull-vs-Lognormal comparison, plus the
// exponential null model that "failures are not memoryless" rejects.
func BenchmarkAblationInterFailureFit(b *testing.B) {
	in := benchInput(b)
	var pm, vm core.InterFailureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm = core.InterFailure(in, model.PM)
		vm = core.InterFailure(in, model.VM)
	}
	b.StopTimer()
	text := ""
	for _, r := range []core.InterFailureResult{pm, vm} {
		text += fmt.Sprintf("%s inter-failure fits:\n", r.Kind)
		for _, fr := range r.Fits.Results {
			text += fmt.Sprintf("  %-12s logL=%9.1f AIC=%9.1f %v\n", fr.Dist.Name(), fr.LogLikelihood, fr.AIC, fr.Dist)
		}
	}
	printSection("Ablation: inter-failure model selection (paper: Gamma wins, exponential rejected)", text)
}

// BenchmarkAblationSpatialCoupling regenerates the dataset without spatial
// fan-out and shows that the multi-server incident mass and the VM spatial
// dependency disappear.
func BenchmarkAblationSpatialCoupling(b *testing.B) {
	cfg := dcsim.PaperConfig()
	cfg.Spatial.Enabled = false
	var sp core.SpatialResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dcsim.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
		opts.SkipClassification = true
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			b.Fatal(err)
		}
		sp = core.Spatial(core.Input{Data: col.Data, Attrs: col.Attrs})
	}
	b.StopTimer()
	printSection("Ablation: spatial coupling disabled (multi-server mass should vanish)",
		report.Spatial(sp))
	b.ReportMetric(sp.ShareTwoPlus, "two_plus_share")
}

// BenchmarkAblationFlatCurves regenerates with flat attribute curves: the
// Fig. 7/8 panels must lose their shape, showing the analysis is measuring
// real structure, not an artifact of the binning.
func BenchmarkAblationFlatCurves(b *testing.B) {
	cfg := dcsim.PaperConfig()
	cfg.Curves = dcsim.CurveSet{
		PMCPU: dcsim.Flat(), VMCPU: dcsim.Flat(),
		PMMem: dcsim.Flat(), VMMem: dcsim.Flat(),
		VMDiskCap: dcsim.Flat(), VMDiskCount: dcsim.Flat(),
		PMCPUUtil: dcsim.Flat(), VMCPUUtil: dcsim.Flat(),
		PMMemUtil: dcsim.Flat(), VMMemUtil: dcsim.Flat(),
		VMDiskUtil: dcsim.Flat(), VMNetKbps: dcsim.Flat(),
		Consolidation: dcsim.Flat(), OnOff: dcsim.Flat(),
	}
	var panels map[string]core.BinnedRates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dcsim.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
		opts.SkipClassification = true
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			b.Fatal(err)
		}
		panels, err = core.CapacityStudy(core.Input{Data: col.Data, Attrs: col.Attrs})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printSection("Ablation: flat generator curves (increment factors should collapse toward 1)",
		fmt.Sprintf("pm_cpu factor %.2f (was ~4-5x)\nvm_diskcount factor %.2f (was ~4-5x)\n",
			panels["pm_cpu"].IncrementFactor, panels["vm_diskcount"].IncrementFactor))
	b.ReportMetric(panels["pm_cpu"].IncrementFactor, "pm_cpu_factor")
}

// BenchmarkAblationHomogeneousFleet regenerates with near-homogeneous
// machines: the recurrent/random ratio collapses, showing that failure
// clustering — not chance — drives Table V.
func BenchmarkAblationHomogeneousFleet(b *testing.B) {
	cfg := dcsim.PaperConfig()
	cfg.HeterogeneityShapePM = 50
	cfg.HeterogeneityShapeVM = 50
	cfg.Recurrence.PMProb = 0
	cfg.Recurrence.VMProb = 0
	var rows []core.RandomVsRecurrent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dcsim.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
		opts.SkipClassification = true
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			b.Fatal(err)
		}
		rows = core.RandomVsRecurrentTable(core.Input{Data: col.Data, Attrs: col.Attrs})
	}
	b.StopTimer()
	text := ""
	for _, r := range rows {
		if r.System == 0 {
			text += fmt.Sprintf("%s: random %.4f recurrent %.3f ratio %.1fx (calibrated model: 35-45x)\n",
				r.Kind, r.Random, r.Recurrent, r.Ratio)
		}
	}
	printSection("Ablation: homogeneous fleet without recurrence chains", text)
}

// BenchmarkAblationLabelNoise reruns the headline analyses with the
// classifier's *predicted* labels instead of the manually verified ground
// truth: the end-to-end sensitivity of the study to its ~10%
// classification error.
func BenchmarkAblationLabelNoise(b *testing.B) {
	cfg := dcsim.PaperConfig()
	out, err := dcsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.UsePredictedLabels = true
	var noisy core.Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			b.Fatal(err)
		}
		noisy = core.Input{Data: col.Data, Attrs: col.Attrs}
	}
	b.StopTimer()

	truth := benchInput(b)
	rate := func(in core.Input, kind model.MachineKind) float64 {
		return rateOf(in, kind)
	}
	pmT, vmT := rate(truth, model.PM), rate(truth, model.VM)
	pmN, vmN := rate(noisy, model.PM), rate(noisy, model.VM)
	recT := core.Recurrence(truth, model.PM, 0).WithinWeek
	recN := core.Recurrence(noisy, model.PM, 0).WithinWeek
	printSection("Ablation: predicted labels instead of manual verification",
		fmt.Sprintf("PM weekly rate: truth %.4f vs predicted-labels %.4f\nVM weekly rate: truth %.4f vs predicted-labels %.4f\nPM weekly recurrence: truth %.3f vs predicted-labels %.3f\n",
			pmT, pmN, vmT, vmN, recT, recN))
	b.ReportMetric(pmN/pmT, "pm_rate_ratio")
}

// rateOf returns the mean weekly failure rate of a kind across the fleet.
func rateOf(in core.Input, kind model.MachineKind) float64 {
	for _, r := range core.WeeklyFailureRates(in) {
		if r.System == 0 && r.Kind == kind {
			return r.Summary.Mean
		}
	}
	return 0
}

// BenchmarkDatasetCodec measures the JSONL round trip of the full dataset.
func BenchmarkDatasetCodec(b *testing.B) {
	in := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf countingWriter
		if err := in.Data.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.n))
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkRNG keeps an eye on the generator's hot path.
func BenchmarkRNG(b *testing.B) {
	r := xrand.New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gamma(0.5, 2)
	}
}
