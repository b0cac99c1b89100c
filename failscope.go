// Package failscope reproduces "Failure Analysis of Virtual and Physical
// Machines: Patterns, Causes and Characteristics" (Birke et al., DSN 2014)
// end to end: a calibrated datacenter field-data simulator standing in for
// the five commercial subsystems the paper measured, the ticket-mining
// collection pipeline of §III, and the failure-analysis library of §IV–§VI
// that regenerates every table and figure of the paper.
//
// The typical flow is three calls:
//
//	study := failscope.PaperStudy()            // calibrated configuration
//	res, err := study.Run()                    // generate → collect → analyze
//	fmt.Print(res.RenderReport())              // all tables and figures
//
// Power users can drive the stages separately through Generate, Collect
// and Analyze, e.g. to persist a generated dataset, swap in their own
// field data, or run a single analysis on a custom fleet.
package failscope

import (
	"fmt"
	"io"
	"time"

	"failscope/internal/core"
	"failscope/internal/dcsim"
	"failscope/internal/detect"
	"failscope/internal/dist"
	"failscope/internal/fidelity"
	"failscope/internal/ftsim"
	"failscope/internal/ingest"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/predict"
	"failscope/internal/report"
	"failscope/internal/stream"
	"failscope/internal/textmine"
	"failscope/internal/ticketdb"
	"failscope/internal/xrand"
)

// Re-exported domain types, so that library users never need to import
// internal packages.
type (
	// Dataset is the assembled field data (machines, tickets, incidents).
	Dataset = model.Dataset
	// Machine is one server in the study.
	Machine = model.Machine
	// Ticket is one problem-ticket record.
	Ticket = model.Ticket
	// Incident is one (possibly multi-server) failure event.
	Incident = model.Incident
	// Attributes are the per-machine measurements of interest.
	Attributes = model.Attributes
	// MachineID identifies a machine.
	MachineID = model.MachineID
	// MachineKind distinguishes PMs, VMs and hosting boxes.
	MachineKind = model.MachineKind
	// System identifies a datacenter subsystem.
	System = model.System
	// FailureClass is the six-way crash classification.
	FailureClass = model.FailureClass
	// Window is an observation interval.
	Window = model.Window

	// GeneratorConfig is the full simulator configuration.
	GeneratorConfig = dcsim.Config
	// CollectOptions configures the ticket-mining pipeline.
	CollectOptions = ingest.Options
	// Collection is the pipeline output (dataset + attributes + report).
	Collection = ingest.Collection
	// ClassifierReport scores the k-means ticket classification.
	ClassifierReport = ingest.ClassifierReport
	// AnalysisInput feeds the analysis library.
	AnalysisInput = core.Input
	// AnalysisReport bundles every table and figure of the paper.
	AnalysisReport = core.Report
	// FieldData is the raw generated databases.
	FieldData = dcsim.Output

	// Per-analysis result types (one per table/figure).
	SystemStats        = core.SystemStats        // Table II
	ClassShare         = core.ClassShare         // Fig. 1
	RateSummary        = core.RateSummary        // Fig. 2
	InterFailureResult = core.InterFailureResult // Fig. 3
	ClassGapStats      = core.ClassGapStats      // Table III
	RepairResult       = core.RepairResult       // Fig. 4
	ClassRepairStats   = core.ClassRepairStats   // Table IV
	RecurrenceResult   = core.RecurrenceResult   // Fig. 5
	RandomVsRecurrent  = core.RandomVsRecurrent  // Table V
	SpatialResult      = core.SpatialResult      // Table VI
	ClassSpatialStats  = core.ClassSpatialStats  // Table VII
	AgeResult          = core.AgeResult          // Fig. 6
	BinnedRates        = core.BinnedRates        // Figs. 7-10
	AttrBin            = core.AttrBin

	// Failure-prediction extension: learn which servers will fail next
	// from the paper's factor set.
	PredictionDataset    = predict.Dataset
	PredictionExample    = predict.Example
	PredictionModel      = predict.Model
	PredictionEvaluation = predict.Evaluation
	PredictionScorer     = predict.Scorer

	// Fault-tolerance simulation extension: evaluate replica-placement
	// policies under the fitted failure models.
	FTConfig    = ftsim.Config
	FTResult    = ftsim.Result
	FTPlacement = ftsim.Placement
)

// Replica-placement policies for the fault-tolerance simulator.
const (
	PlacementSpread = ftsim.Spread
	PlacementPack   = ftsim.Pack
)

// Distribution is a fitted continuous distribution (Gamma, Weibull,
// Lognormal, Exponential or a scaled wrapper); obtained from the analysis
// report's fit selections.
type Distribution = dist.Distribution

// ScaleDistribution returns the distribution of factor·X — the unit-change
// wrapper (e.g. drive an hour-clock simulator with a gap model fitted in
// days using factor 24).
func ScaleDistribution(d Distribution, factor float64) (Distribution, error) {
	s, err := dist.NewScaled(d, factor)
	if err != nil {
		return nil, fmt.Errorf("failscope: scale distribution: %w", err)
	}
	return s, nil
}

// SimulateService runs the discrete-event fault-tolerance simulation.
func SimulateService(cfg FTConfig) (FTResult, error) {
	res, err := ftsim.Run(cfg)
	if err != nil {
		return FTResult{}, fmt.Errorf("failscope: simulate service: %w", err)
	}
	return res, nil
}

// ComparePlacements runs the same service under spread and pack placement.
func ComparePlacements(cfg FTConfig) (map[FTPlacement]FTResult, error) {
	out, err := ftsim.Compare(cfg)
	if err != nil {
		return nil, fmt.Errorf("failscope: compare placements: %w", err)
	}
	return out, nil
}

// SystemProfile is the per-subsystem operator one-pager.
type SystemProfile = core.SystemProfile

// ProfileSystem assembles the per-system deep dive: populations, rates by
// kind, class mix, repair picture, recurrence and the worst offenders.
func ProfileSystem(in AnalysisInput, sys System, topN int) SystemProfile {
	return core.Profile(in, sys, topN)
}

// PredictionFeatureNames lists the model inputs, in feature-vector order.
func PredictionFeatureNames() []string {
	return append([]string(nil), predict.FeatureNames...)
}

// BuildPredictionDataset derives a train/test failure-prediction dataset
// from an analysis input: features up to the split time, labels from the
// crash history after it.
func BuildPredictionDataset(in AnalysisInput, split time.Time, trainShare float64) (*PredictionDataset, error) {
	ds, err := predict.BuildDataset(in, split, trainShare)
	if err != nil {
		return nil, fmt.Errorf("failscope: build prediction dataset: %w", err)
	}
	return ds, nil
}

// TrainPredictor fits the logistic failure predictor.
func TrainPredictor(train []PredictionExample) (*PredictionModel, error) {
	m, err := predict.TrainLogistic(train)
	if err != nil {
		return nil, fmt.Errorf("failscope: train predictor: %w", err)
	}
	return m, nil
}

// EvaluatePredictor scores a predictor (or baseline) on test examples.
func EvaluatePredictor(s PredictionScorer, test []PredictionExample) PredictionEvaluation {
	return predict.Evaluate(s, test)
}

// HistoryBaseline is the past-failures-only scorer the learned model is
// compared against.
func HistoryBaseline() PredictionScorer { return predict.HistoryBaseline() }

// Machine kinds and failure classes, re-exported.
const (
	PM  = model.PM
	VM  = model.VM
	Box = model.Box

	ClassHardware = model.ClassHardware
	ClassNetwork  = model.ClassNetwork
	ClassSoftware = model.ClassSoftware
	ClassPower    = model.ClassPower
	ClassReboot   = model.ClassReboot
	ClassOther    = model.ClassOther
)

// Study is a reproducible experiment: a generator configuration plus
// collection options.
type Study struct {
	Generator GeneratorConfig
	Collect   CollectOptions

	// Parallelism, when non-zero, overrides the worker count of both the
	// generator and the collection pipeline for this run: 0 leaves the
	// per-stage settings alone, 1 forces the sequential reference path, and
	// any other value fans the per-machine/per-ticket work across that many
	// goroutines. Every setting produces byte-identical results — see the
	// "Concurrency model" section of DESIGN.md.
	Parallelism int

	// Observer, when non-nil, records stage spans and pipeline metrics for
	// the run — see the "Observability" section of DESIGN.md. Observation
	// never touches a random stream, so the result is byte-identical with
	// and without it, at any worker count.
	Observer *Observer
}

// WithParallelism returns a copy of the study with the worker count of
// every stage set to p (0 = GOMAXPROCS, 1 = sequential).
func (s Study) WithParallelism(p int) Study {
	s.Parallelism = p
	s.Generator.Parallelism = p
	s.Collect.Parallelism = p
	return s
}

// WithObserver returns a copy of the study instrumented with o.
func (s Study) WithObserver(o *Observer) Study {
	s.Observer = o
	return s
}

// PaperStudy returns the study calibrated to the paper's published
// statistics: five subsystems, ~10K machines, one year of tickets.
func PaperStudy() Study {
	gen := dcsim.PaperConfig()
	return Study{
		Generator: gen,
		Collect:   ingest.DefaultOptions(gen.Observation, gen.FineWindow),
	}
}

// SmallStudy returns a scaled-down study (~1/8 of the populations) for
// quick experiments and tests.
func SmallStudy() Study {
	gen := dcsim.SmallConfig()
	return Study{
		Generator: gen,
		Collect:   ingest.DefaultOptions(gen.Observation, gen.FineWindow),
	}
}

// FleetStudy returns the ~10⁶-machine stress study behind the BENCH_fleet
// baseline: the paper's subsystems scaled up 106×, an 8-week observation
// window, and text classification off (the fleet run benchmarks the
// generate/collect/analyze hot paths at fleet cardinality, not the miner).
func FleetStudy() Study {
	gen := dcsim.FleetConfig()
	opts := ingest.DefaultOptions(gen.Observation, gen.FineWindow)
	opts.SkipClassification = true
	return Study{
		Generator: gen,
		Collect:   opts,
	}
}

// Result is a completed study run.
type Result struct {
	Field      *FieldData
	Collection *Collection
	Report     *AnalysisReport
}

// Run executes the full pipeline: generate field data, run the collection
// pipeline, and analyze. With an Observer attached, each stage runs under
// its own span ("generate", "collect", "analyze") with the per-stage
// sub-stages nested beneath.
func (s Study) Run() (*Result, error) {
	if s.Parallelism != 0 {
		s.Generator.Parallelism = s.Parallelism
		s.Collect.Parallelism = s.Parallelism
	}
	o := s.Observer
	genSpan := o.Start("generate")
	s.Generator.Observer = o.Under(genSpan)
	field, err := Generate(s.Generator)
	genSpan.End()
	if err != nil {
		return nil, err
	}
	colSpan := o.Start("collect")
	s.Collect.Observer = o.Under(colSpan)
	col, err := Collect(field, s.Collect)
	colSpan.End()
	if err != nil {
		return nil, err
	}
	anaSpan := o.Start("analyze")
	rep, err := Analyze(AnalysisInput{Data: col.Data, Attrs: col.Attrs, Observer: o.Under(anaSpan)})
	anaSpan.End()
	if err != nil {
		return nil, err
	}
	return &Result{Field: field, Collection: col, Report: rep}, nil
}

// Generate runs the datacenter simulator, producing raw field data.
func Generate(cfg GeneratorConfig) (*FieldData, error) {
	out, err := dcsim.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("failscope: generate: %w", err)
	}
	return out, nil
}

// Collect runs the §III data-collection pipeline over field data.
func Collect(field *FieldData, opts CollectOptions) (*Collection, error) {
	col, err := ingest.Collect(field.Data, field.Tickets, field.Monitor, opts)
	if err != nil {
		return nil, fmt.Errorf("failscope: collect: %w", err)
	}
	return col, nil
}

// CollectDataset runs the pipeline over an externally supplied dataset and
// monitoring database (e.g. real field data decoded from disk).
func CollectDataset(data *Dataset, tickets []Ticket, monitor *monitordb.DB, opts CollectOptions) (*Collection, error) {
	store := ticketdb.NewStore()
	for _, t := range tickets {
		store.Append(t)
	}
	col, err := ingest.Collect(data, store, monitor, opts)
	if err != nil {
		return nil, fmt.Errorf("failscope: collect dataset: %w", err)
	}
	return col, nil
}

// Analyze runs the complete §IV–§VI analysis.
func Analyze(in AnalysisInput) (*AnalysisReport, error) {
	rep, err := core.Analyze(in)
	if err != nil {
		return nil, fmt.Errorf("failscope: analyze: %w", err)
	}
	return rep, nil
}

// RenderReport renders every table and figure of the paper as text.
func (r *Result) RenderReport() string {
	return report.Full(r.Report)
}

// WriteDataset persists the generated dataset as JSON Lines.
func WriteDataset(w io.Writer, d *Dataset) error { return d.Encode(w) }

// ReadDataset loads a dataset written with WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, error) { return model.Decode(r) }

// MonitorDB is the resource-monitoring database (usage series, placements,
// power events).
type MonitorDB = monitordb.DB

// WriteMonitor persists a monitoring database as JSON Lines.
func WriteMonitor(w io.Writer, db *MonitorDB) error { return db.Encode(w) }

// ReadMonitor loads a monitoring database written with WriteMonitor (or an
// external telemetry export in the same format).
func ReadMonitor(r io.Reader) (*MonitorDB, error) { return monitordb.Decode(r) }

// NewEmptyMonitor returns an empty monitoring database (analyses needing
// usage/consolidation attributes will be restricted accordingly).
func NewEmptyMonitor(epoch time.Time, retention time.Duration) *MonitorDB {
	return monitordb.New(epoch, retention)
}

// RNG is the deterministic random number generator used across the
// library; exposed so callers can sample from fitted distributions (e.g.
// in reliability models built on top of the analysis).
type RNG = xrand.RNG

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// Observability, re-exported from internal/obs. An Observer records a
// hierarchical span tree (wall time, summed worker busy time, allocation
// deltas, item counts per pipeline stage) and a registry of named metrics
// as the study runs; both export as a text tree, a plain-text metric dump,
// expvar variables, or a machine-readable RunReport. Every method is safe
// on a nil receiver, and observation never touches a random stream.
type (
	// Observer couples the active span with the run's metric registry.
	Observer = obs.Observer
	// Span is one timed stage of the pipeline.
	Span = obs.Span
	// Metrics is the named counter/gauge/histogram registry.
	Metrics = obs.Registry
	// RunReport is the machine-readable run summary (JSON).
	RunReport = obs.RunReport
	// SpanReport is one span in a RunReport.
	SpanReport = obs.SpanReport
)

// NewObserver returns an observer rooted at a run-level span named name.
func NewObserver(name string) *Observer { return obs.NewObserver(name) }

// Logger is the nil-safe structured pipeline logger (a log/slog wrapper);
// attach one to an Observer with WithLogger to get stage start/end, drop
// decision and data-quality log records as the study runs.
type Logger = obs.Logger

// NewLogger returns a structured logger writing to w. Level is one of
// "debug", "info", "warn", "error"; format is "text" or "json".
func NewLogger(w io.Writer, level, format string) (*Logger, error) {
	l, err := obs.NewLogger(w, level, format)
	if err != nil {
		return nil, fmt.Errorf("failscope: new logger: %w", err)
	}
	return l, nil
}

// Reproduction-fidelity scoreboard, re-exported from internal/fidelity.
// ScoreFidelity grades a completed run against the simulator's ground
// truth and the paper's headline numbers — see the "Observability" section
// of DESIGN.md.
type (
	// FidelityScoreboard is the full fidelity report of one run: the
	// ground-truth quality scores plus every evaluated paper band.
	FidelityScoreboard = fidelity.Scoreboard
	// FidelityBand is one evaluated paper-expected check.
	FidelityBand = fidelity.Band
	// FidelityQuality scores the pipeline against simulator ground truth.
	FidelityQuality = fidelity.Quality
	// FidelityVerdict is a band outcome: pass, warn, fail or skip.
	FidelityVerdict = fidelity.Verdict
)

// Fidelity band verdicts.
const (
	FidelityPass = fidelity.VerdictPass
	FidelityWarn = fidelity.VerdictWarn
	FidelityFail = fidelity.VerdictFail
	FidelitySkip = fidelity.VerdictSkip
)

// ScoreFidelity evaluates the reproduction-fidelity scoreboard for a
// completed run. The observer is optional: when non-nil its metrics
// snapshot feeds the drop-accounting and join-coverage scores; the
// registry-based checks skip otherwise. Scoring only reads the result, so
// study output is byte-identical with scoring on or off.
func ScoreFidelity(res *Result, o *Observer) *FidelityScoreboard {
	in := fidelity.Input{Metrics: o.Metrics().Snapshot()}
	if res != nil {
		in.Report = res.Report
		if res.Collection != nil {
			in.Classifier = res.Collection.Classifier
		}
	}
	return fidelity.Score(in)
}

// ServeDebug starts an HTTP server on addr exposing /debug/pprof and
// /debug/vars; it returns the bound address and a shutdown func.
func ServeDebug(addr string) (string, func(), error) { return obs.ServeDebug(addr) }

// Streaming, re-exported from internal/stream: the incremental engine that
// keeps the paper's statistics continuously up to date as events arrive,
// converging to the batch Analyze numbers on the same data. failscoped
// serves it over HTTP; library users embed it directly:
//
//	eng, _ := failscope.NewStreamEngine(failscope.StreamConfig{Observation: win})
//	eng.Apply(batch)                        // ordered ticket/sample events
//	snap := eng.Snapshot()                  // partial AnalysisReport, anytime
//	fmt.Println(snap.Fidelity().Passed)     // paper-band scoreboard
type (
	// StreamEngine is the incremental analysis engine.
	StreamEngine = stream.Engine
	// StreamConfig configures the engine (observation window, optional
	// online classifier and detector).
	StreamConfig = stream.Config
	// StreamEvent is one element of the input stream (JSONL on the wire).
	StreamEvent = stream.Event
	// Snapshot is the engine's queryable state at one point in the stream.
	Snapshot = stream.Snapshot

	// OnlineClassifier is the frozen two-stage crash-ticket model, safe for
	// concurrent streaming prediction.
	OnlineClassifier = textmine.OnlineClassifier

	// Detector is the online failure-detection layer: per-machine
	// recurrence and anomaly detectors over the live stream, raising and
	// clearing alerts scored against ground truth.
	Detector = detect.Detector
	// DetectorConfig parameterizes a Detector; zero fields take the
	// calibrated defaults.
	DetectorConfig = detect.Config
	// Alert is one raised (or recently cleared) detection.
	Alert = detect.Alert
	// DetectionSnapshot is the queryable detection state: active alerts,
	// cleared ring and confirmation accounting.
	DetectionSnapshot = detect.Snapshot
)

// NewDetector creates an online failure detector; wire it into a stream
// engine through StreamConfig.Detector.
func NewDetector(cfg DetectorConfig) *Detector { return detect.New(cfg) }

// ScoreDetection grades a detection snapshot's precision, lead-time and
// false-alarm accounting against the calibrated bands, in the same
// scoreboard shape FidelityScore uses; Err on the result drives the
// failanalyze -detect-gate exit code.
func ScoreDetection(s *DetectionSnapshot) *FidelityScoreboard { return detect.Score(s) }

// NewStreamEngine creates a streaming analysis engine.
func NewStreamEngine(cfg StreamConfig) (*StreamEngine, error) {
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("failscope: new stream engine: %w", err)
	}
	return eng, nil
}

// TrainOnlineClassifier trains the two-stage k-means ticket classifier for
// streaming use. The training draws are byte-for-byte those of the batch
// collection pipeline with the same options, so a frozen model predicts
// exactly what Collect would have.
func TrainOnlineClassifier(tickets []Ticket, opts CollectOptions) (*OnlineClassifier, error) {
	clf, err := ingest.TrainOnlineClassifier(tickets, opts)
	if err != nil {
		return nil, fmt.Errorf("failscope: %w", err)
	}
	return clf, nil
}

// StreamEventsFromField flattens generated (or ingested) field data into
// the ordered event stream a live deployment would have produced —
// inventory first, then every timed record in arrival order.
func StreamEventsFromField(field *FieldData) []StreamEvent {
	return stream.EventsFromField(field.Data, field.Tickets, field.Monitor)
}

// ReadStreamEvents decodes a JSONL event batch; errors name the 1-based
// offending line. The batch is never released to the pool, so the
// returned events own their backing arenas.
func ReadStreamEvents(r io.Reader) ([]StreamEvent, error) {
	var b stream.Batch
	if _, err := b.DecodeJSONLInto(r); err != nil {
		return nil, err
	}
	return b.Events, nil
}

// WriteStreamEvents writes events one JSON object per line.
func WriteStreamEvents(w io.Writer, events []StreamEvent) error {
	return stream.EncodeJSONL(w, events)
}

// PaperConfig exposes the calibrated generator configuration for callers
// who want to tweak individual knobs (seeds, populations, curves).
func PaperConfig() GeneratorConfig { return dcsim.PaperConfig() }

// DefaultCollectOptions returns pipeline defaults for the given windows.
func DefaultCollectOptions(obs, fine Window) CollectOptions {
	return ingest.DefaultOptions(obs, fine)
}
