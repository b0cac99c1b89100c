// Command failanalyze runs the complete study — generate field data, mine
// the tickets, analyze — and prints every table and figure of the paper.
//
// Usage:
//
//	failanalyze [-seed N] [-scale small|paper|fleet] [-classify] [-section NAME] [-parallelism P]
//	failanalyze -input dataset.jsonl [-monitor monitor.jsonl] [-csv outdir]
//	failanalyze -scale small -v -trace-out run.json    # stage spans + run report
//	failanalyze -scale small -classify -section fidelity -fidelity-gate    # CI band gate
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"failscope"
	"failscope/internal/clikit"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failanalyze:", err)
		os.Exit(1)
	}
}

// renderContext is what a -section renderer sees: the analysis report plus
// the fidelity scoreboard (nil unless fidelity output was requested) and
// the detection snapshot/scoreboard (nil unless detection was requested).
type renderContext struct {
	report      *failscope.AnalysisReport
	fidelity    *failscope.FidelityScoreboard
	detectSnap  *failscope.DetectionSnapshot
	detectBands *failscope.FidelityScoreboard
}

// sections maps -section names to their renderers, in paper order; the
// fidelity scoreboard comes last.
var sections = []struct {
	name   string
	render func(ctx *renderContext) string
}{
	{"tableII", func(ctx *renderContext) string { return report.DatasetStats(ctx.report.DatasetStats) }},
	{"fig1", func(ctx *renderContext) string { return report.ClassDistribution(ctx.report.ClassDistribution) }},
	{"fig2", func(ctx *renderContext) string { return report.WeeklyRates(ctx.report.WeeklyRates) }},
	{"fig3", func(ctx *renderContext) string {
		return report.InterFailure(ctx.report.InterFailurePM) + report.InterFailure(ctx.report.InterFailureVM)
	}},
	{"tableIII", func(ctx *renderContext) string { return report.InterFailureByClass(ctx.report.InterFailureClass) }},
	{"fig4", func(ctx *renderContext) string {
		return report.Repair(ctx.report.RepairPM) + report.Repair(ctx.report.RepairVM)
	}},
	{"tableIV", func(ctx *renderContext) string { return report.RepairByClass(ctx.report.RepairClass) }},
	{"fig5", func(ctx *renderContext) string {
		return report.Recurrence(ctx.report.RecurrencePM, ctx.report.RecurrenceVM)
	}},
	{"tableV", func(ctx *renderContext) string { return report.RandomVsRecurrent(ctx.report.RandomRecurrent) }},
	{"tableVI", func(ctx *renderContext) string { return report.Spatial(ctx.report.Spatial) }},
	{"tableVII", func(ctx *renderContext) string { return report.SpatialByClass(ctx.report.SpatialClass) }},
	{"fig6", func(ctx *renderContext) string { return report.Age(ctx.report.Age) }},
	{"hazard", func(ctx *renderContext) string { return report.Hazard(ctx.report.AgeHazard) }},
	{"figs7-10", func(ctx *renderContext) string { return renderBinnedRateFigs(ctx.report) }},
	{"fidelity", func(ctx *renderContext) string { return report.Fidelity(ctx.fidelity) }},
	{"detection", func(ctx *renderContext) string { return report.Detection(ctx.detectSnap, ctx.detectBands) }},
}

// renderBinnedRateFigs prints the Figs. 7–10 capacity/usage/consolidation/
// on-off panels — the binned-rate tail of the full report.
func renderBinnedRateFigs(r *failscope.AnalysisReport) string {
	var b strings.Builder
	for _, key := range []string{"pm_cpu", "vm_cpu", "pm_mem", "vm_mem", "vm_diskcap", "vm_diskcount"} {
		if br, ok := r.Capacity[key]; ok {
			b.WriteString(report.BinnedRates("Fig. 7 — weekly failure rate vs "+key, br))
		}
	}
	for _, key := range []string{"pm_cpuutil", "vm_cpuutil", "pm_memutil", "vm_memutil", "vm_diskutil", "vm_net"} {
		if br, ok := r.Usage[key]; ok {
			b.WriteString(report.BinnedRates("Fig. 8 — weekly failure rate vs "+key, br))
		}
	}
	b.WriteString(report.BinnedRates("Fig. 9 — weekly failure rate vs consolidation level", r.ConsolidationFig))
	b.WriteString(report.BinnedRates("Fig. 10 — weekly failure rate vs on/off per month", r.OnOffFig))
	return b.String()
}

// sectionNames lists every valid -section value, sorted.
func sectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}

func run() error {
	var (
		seed       = flag.Uint64("seed", 0, "generator seed (0 keeps the calibrated default)")
		scale      = flag.String("scale", "paper", "dataset scale: paper, small or fleet")
		classify   = flag.Bool("classify", false, "also run the k-means ticket classification (slower)")
		section    = flag.String("section", "", "print only one section: "+strings.Join(sectionNames(), "|"))
		inputPath  = flag.String("input", "", "analyze an existing dataset (JSONL from dcgen) instead of generating")
		monPath    = flag.String("monitor", "", "monitoring database (JSONL) to join when -input is used")
		csvDir     = flag.String("csv", "", "also export every figure panel as CSV into this directory")
		profile    = flag.Int("profile", 0, "print the operator profile of one subsystem (1-5) instead of the report")
		parallel   = flag.Int("parallelism", 0, "worker count for the study pipeline (0 = all CPUs, 1 = sequential; the report is identical)")
		gate       = flag.Bool("fidelity-gate", false, "exit non-zero when any fidelity band fails its paper-expected range (CI mode)")
		detectGate = flag.Bool("detect-gate", false, "replay the study through the online detector and exit non-zero when a detection band fails (CI mode)")
		detHorizon = flag.Duration("detect-horizon", 0, "alert confirmation horizon for the detection replay (0 = calibrated default)")
	)
	ofl := clikit.AddFlags(flag.CommandLine)
	flag.Parse()

	// Reject a bad section name before the study runs, not after.
	if *section != "" && sectionByName(*section) == nil {
		return fmt.Errorf("unknown section %q; valid sections: %s", *section, strings.Join(sectionNames(), ", "))
	}

	var study failscope.Study
	switch *scale {
	case "paper":
		study = failscope.PaperStudy()
	case "small":
		study = failscope.SmallStudy()
	case "fleet":
		study = failscope.FleetStudy()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *seed != 0 {
		study.Generator.Seed = *seed
	}
	study = study.WithParallelism(*parallel)
	study.Collect.SkipClassification = !*classify

	// The fidelity scoreboard wants a metrics snapshot for its accounting
	// bands, so any fidelity request implies an observed run even when no
	// observability flag is set. Observation never changes the output.
	needFidelity := *gate || ofl.TraceOut != "" || *section == "fidelity"
	o, stopDebug, err := ofl.Observer("failanalyze")
	if err != nil {
		return err
	}
	defer stopDebug()
	if o == nil && needFidelity {
		o = failscope.NewObserver("failanalyze")
	}
	o.SetMeta(study.Generator.Seed, *parallel,
		fmt.Sprintf("scale=%s classify=%v detect=%v", *scale, *classify, *detectGate))
	study = study.WithObserver(o)

	var res *failscope.Result
	if *inputPath != "" {
		res, err = runOnFiles(study, *inputPath, *monPath)
	} else {
		res, err = study.Run()
	}
	if err != nil {
		return err
	}

	var scoreboard *failscope.FidelityScoreboard
	if needFidelity {
		scoreboard = failscope.ScoreFidelity(res, o)
	}

	// The detection scoreboard replays the generated study through the
	// streaming engine with the online detector attached and grades the
	// alerts against ground truth.
	var detSnap *failscope.DetectionSnapshot
	var detBands *failscope.FidelityScoreboard
	if *detectGate || *section == "detection" {
		if *inputPath != "" {
			return fmt.Errorf("detection replay needs a generated study; drop -input")
		}
		detSnap, detBands, err = runDetection(study, res.Field, *detHorizon, o)
		if err != nil {
			return err
		}
	}
	if err := ofl.Emit("failanalyze", o, func(rep *failscope.RunReport) {
		if scoreboard != nil {
			rep.Quality = scoreboard.Quality
			rep.Fidelity = scoreboard
		}
	}); err != nil {
		return err
	}

	if *classify && res.Collection.Classifier != nil {
		c := res.Collection.Classifier
		fmt.Printf("§III.A k-means ticket classification: accuracy=%.1f%% crash-class accuracy=%.1f%% crash recall=%.1f%% precision=%.1f%% (train %d / test %d)\n\n",
			100*c.Accuracy, 100*c.CrashClassAccuracy, 100*c.CrashRecall, 100*c.CrashPrecision, c.TrainDocs, c.TestDocs)
	}

	if *csvDir != "" {
		if err := exportCSV(*csvDir, res.Report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "failanalyze: wrote CSV panels to %s\n", *csvDir)
	}

	if *profile != 0 {
		if *profile < 1 || *profile > 5 {
			return fmt.Errorf("profile must be 1-5, got %d", *profile)
		}
		in := failscope.AnalysisInput{Data: res.Collection.Data, Attrs: res.Collection.Attrs}
		p := failscope.ProfileSystem(in, failscope.System(*profile), 5)
		fmt.Print(report.Profile(p))
		if err := fidelityGate(*gate, scoreboard); err != nil {
			return err
		}
		return detectionGate(*detectGate, detBands)
	}

	ctx := &renderContext{report: res.Report, fidelity: scoreboard, detectSnap: detSnap, detectBands: detBands}
	if *section == "" {
		fmt.Print(res.RenderReport())
	} else {
		fmt.Print(sectionByName(*section)(ctx))
	}
	if err := fidelityGate(*gate, scoreboard); err != nil {
		return err
	}
	return detectionGate(*detectGate, detBands)
}

// runDetection replays the study's generated field as its event stream
// (inventory first, then every timed record in arrival order, closed by an
// advance to the observation end so in-flight alerts censor exactly like
// the batch recurrence analysis) through a stream engine with the online
// detector attached, and grades the resulting alerts. The collection only
// reads the field, so the study's own run supplies it.
func runDetection(study failscope.Study, field *failscope.FieldData, horizon time.Duration, o *failscope.Observer) (*failscope.DetectionSnapshot, *failscope.FidelityScoreboard, error) {
	det := failscope.NewDetector(failscope.DetectorConfig{Horizon: horizon})
	eng, err := failscope.NewStreamEngine(failscope.StreamConfig{
		Observation: study.Generator.Observation,
		Detector:    det,
		Observer:    o,
	})
	if err != nil {
		return nil, nil, err
	}
	// The span covers flattening the field into the event stream too —
	// it dominates the replay's allocations and should be gated with it.
	repSpan := o.Start("detect-replay")
	events := failscope.StreamEventsFromField(field)
	end := study.Generator.Observation.End
	events = append(events, failscope.StreamEvent{Type: "advance", Time: &end})
	err = eng.Apply(events)
	repSpan.AddItems(len(events))
	repSpan.End()
	if err != nil {
		return nil, nil, err
	}
	snap := det.Snapshot()
	return snap, failscope.ScoreDetection(snap), nil
}

// detectionGate maps the detection scoreboard to the process exit status
// under -detect-gate: any failed band becomes a non-zero exit.
func detectionGate(enabled bool, sb *failscope.FidelityScoreboard) error {
	if !enabled || sb == nil {
		return nil
	}
	if err := sb.Err(); err != nil {
		return fmt.Errorf("detection %w", err)
	}
	fmt.Fprintf(os.Stderr, "failanalyze: detection gate clean (%d bands pass, %d warn, %d skipped)\n",
		sb.Passed, sb.Warned, sb.Skipped)
	return nil
}

// fidelityGate maps the scoreboard to the process exit status under
// -fidelity-gate: any failed band becomes a non-zero exit.
func fidelityGate(enabled bool, sb *failscope.FidelityScoreboard) error {
	if !enabled || sb == nil {
		return nil
	}
	if err := sb.Err(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "failanalyze: fidelity gate clean (%d bands pass, %d warn, %d skipped)\n",
		sb.Passed, sb.Warned, sb.Skipped)
	return nil
}

// sectionByName returns the renderer registered for name, or nil.
func sectionByName(name string) func(ctx *renderContext) string {
	for _, s := range sections {
		if s.name == name {
			return s.render
		}
	}
	return nil
}

// exportCSV writes every figure panel, CDF and hazard series as CSV files.
func exportCSV(dir string, r *failscope.AnalysisReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	for key, br := range r.Capacity {
		br := br
		if err := write("fig7_"+key+".csv", func(w *os.File) error {
			return report.WriteBinnedRatesCSV(w, br)
		}); err != nil {
			return err
		}
	}
	for key, br := range r.Usage {
		br := br
		if err := write("fig8_"+key+".csv", func(w *os.File) error {
			return report.WriteBinnedRatesCSV(w, br)
		}); err != nil {
			return err
		}
	}
	if err := write("fig9_consolidation.csv", func(w *os.File) error {
		return report.WriteBinnedRatesCSV(w, r.ConsolidationFig)
	}); err != nil {
		return err
	}
	if err := write("fig10_onoff.csv", func(w *os.File) error {
		return report.WriteBinnedRatesCSV(w, r.OnOffFig)
	}); err != nil {
		return err
	}
	if r.InterFailurePM.ECDF != nil {
		if err := write("fig3_pm_cdf.csv", func(w *os.File) error {
			return report.WriteCDFCSV(w, r.InterFailurePM.ECDF.Points(200))
		}); err != nil {
			return err
		}
	}
	if r.InterFailureVM.ECDF != nil {
		if err := write("fig3_vm_cdf.csv", func(w *os.File) error {
			return report.WriteCDFCSV(w, r.InterFailureVM.ECDF.Points(200))
		}); err != nil {
			return err
		}
	}
	if r.RepairPM.ECDF != nil {
		if err := write("fig4_pm_cdf.csv", func(w *os.File) error {
			return report.WriteCDFCSV(w, r.RepairPM.ECDF.Points(200))
		}); err != nil {
			return err
		}
	}
	if r.RepairVM.ECDF != nil {
		if err := write("fig4_vm_cdf.csv", func(w *os.File) error {
			return report.WriteCDFCSV(w, r.RepairVM.ECDF.Points(200))
		}); err != nil {
			return err
		}
	}
	return write("fig6_age_hazard.csv", func(w *os.File) error {
		return report.WriteHazardCSV(w, r.AgeHazard)
	})
}

// runOnFiles analyzes a persisted dataset (and, optionally, a persisted
// monitoring database) instead of generating fresh field data. Both dumps
// decode on the study's worker count, each under its own span.
func runOnFiles(study failscope.Study, dataPath, monitorPath string) (*failscope.Result, error) {
	o := study.Observer
	df, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer df.Close()
	sp := o.Start("read-dataset")
	data, st, err := model.DecodeParallel(df, study.Parallelism)
	sp.AddPool(st)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dataPath, err)
	}

	monitor := failscope.NewEmptyMonitor(study.Generator.MonitorEpoch, study.Generator.MonitorRetention)
	if monitorPath != "" {
		mf, err := os.Open(monitorPath)
		if err != nil {
			return nil, err
		}
		defer mf.Close()
		sp := o.Start("read-monitor")
		monitor, st, err = monitordb.DecodeParallel(mf, study.Parallelism)
		sp.AddPool(st)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", monitorPath, err)
		}
	}

	opts := study.Collect
	opts.Observation = data.Observation
	colSpan := o.Start("collect")
	opts.Observer = o.Under(colSpan)
	col, err := failscope.CollectDataset(data, data.Tickets, monitor, opts)
	colSpan.End()
	if err != nil {
		return nil, err
	}
	anaSpan := o.Start("analyze")
	rep, err := failscope.Analyze(failscope.AnalysisInput{Data: col.Data, Attrs: col.Attrs, Observer: o.Under(anaSpan)})
	anaSpan.End()
	if err != nil {
		return nil, err
	}
	return &failscope.Result{Collection: col, Report: rep}, nil
}
