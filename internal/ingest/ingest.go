// Package ingest implements the data-collection process of §III.A: mining
// crash tickets out of the full problem-ticket population with k-means
// text clustering, classifying them into the six resolution classes,
// extracting the affected server ids and joining them against the
// monitoring database for the measurements of interest.
package ingest

import (
	"fmt"
	"sort"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/par"
	"failscope/internal/textmine"
	"failscope/internal/ticketdb"
	"failscope/internal/xrand"
)

// Options configures the pipeline.
type Options struct {
	// Observation restricts analysis to this window; FineWindow is where
	// 15-minute data exists for on/off screening.
	Observation model.Window
	FineWindow  model.Window

	// SkipClassification skips the k-means step (for fast analyses that
	// only need the joined dataset).
	SkipClassification bool

	// UsePredictedLabels replaces every ticket's ground-truth crash flag
	// and class with the classifier's prediction before the analysis —
	// the end-to-end robustness experiment: does the ~10% classification
	// error change the study's findings? The paper instead manually
	// verified all tickets (the default here too).
	UsePredictedLabels bool

	// Parallelism is the worker count for classifier training, test-set
	// prediction and the monitoring join: 0 means GOMAXPROCS, 1 the
	// sequential reference. The collection is identical at every setting.
	Parallelism int

	// Observer, when non-nil, records pipeline spans (window filter, the
	// two classifier training stages, prediction, the monitoring join) and
	// ingest metrics (train/test sizes, join hit rate). It never touches
	// the RNG: the collection is identical with and without it.
	Observer *obs.Observer
}

const (
	// classifySeed seeds the classification RNG: the labeling draws and
	// both k-means seedings.
	classifySeed = 1

	// trainFraction of background tickets (capped at maxTrainDocs)
	// provides the manually labeled examples the cluster labeling
	// consults.
	trainFraction float64 = 0.30

	// maxTrainDocs caps the manually labeled training set, half of it for
	// crash tickets and half for background ones.
	maxTrainDocs = 12000
)

// DefaultOptions returns the pipeline defaults.
func DefaultOptions(win, fine model.Window) Options {
	return Options{
		Observation: win,
		FineWindow:  fine,
	}
}

// ClassifierReport is the §III.A classification outcome.
type ClassifierReport struct {
	TrainDocs int
	TestDocs  int
	// Accuracy is over all test tickets (background + crash).
	Accuracy float64
	// CrashClassAccuracy is the fraction of true crash tickets assigned
	// their correct failure class — the metric comparable to the paper's
	// 87% ("after manually checking the classification of all tickets").
	CrashClassAccuracy float64
	// CrashRecall/CrashPrecision score the binary crash-vs-background
	// decision that gates the whole study.
	CrashRecall    float64
	CrashPrecision float64
	Confusion      *textmine.ConfusionMatrix
	// Stage1Purity/Stage2Purity are the k-means cluster purities of the
	// crash-identification and class-assignment stages — how cleanly the
	// text clusters align with the ground-truth labels before any
	// prediction happens.
	Stage1Purity float64
	Stage2Purity float64
}

// Collection is the assembled analysis input: the dataset restricted to
// the observation window plus per-machine attributes and the
// classification report.
type Collection struct {
	Data       *model.Dataset
	Attrs      map[model.MachineID]model.Attributes
	Classifier *ClassifierReport
}

// labelOf maps a ticket to its classification label: 0 for background
// (non-crash) tickets, otherwise the failure class.
func labelOf(t model.Ticket) int {
	if !t.IsCrash {
		return 0
	}
	return int(t.Class)
}

// Collect runs the full pipeline over the raw field databases.
func Collect(data *model.Dataset, tickets *ticketdb.Store, monitor *monitordb.DB, opts Options) (*Collection, error) {
	o := opts.Observer
	if opts.Observation.Duration() <= 0 {
		opts.Observation = data.Observation
	}
	winSpan := o.Start("window-filter")
	inWindow := tickets.InWindow(opts.Observation)
	winSpan.AddItems(len(inWindow))
	winSpan.End()
	o.Metrics().Add("ingest.tickets_in_window", int64(len(inWindow)))
	if dropped := tickets.Len() - len(inWindow); dropped > 0 {
		o.Metrics().Add("ingest.tickets_window_dropped", int64(dropped))
		o.Log().Info("window filter dropped tickets outside the observation window",
			"kept", len(inWindow), "dropped", dropped)
	}

	col := &Collection{
		Data: model.NewDataset(opts.Observation, data.Machines, inWindow, data.Incidents),
	}

	if !opts.SkipClassification {
		clsSpan := o.Start("classify")
		report, preds, err := classify(inWindow, opts, o.Under(clsSpan))
		clsSpan.End()
		if err != nil {
			return nil, fmt.Errorf("ingest: classify tickets: %w", err)
		}
		col.Classifier = report
		if opts.UsePredictedLabels {
			relabeled := make([]model.Ticket, len(inWindow))
			copy(relabeled, inWindow)
			for i := range relabeled {
				if preds[i] == 0 {
					relabeled[i].IsCrash = false
					relabeled[i].Class = 0
				} else {
					relabeled[i].IsCrash = true
					relabeled[i].Class = model.FailureClass(preds[i])
				}
			}
			col.Data = model.NewDataset(opts.Observation, data.Machines, relabeled, data.Incidents)
		}
	}

	col.Attrs = joinAttributes(data, monitor, opts)
	return col, nil
}

// split is the outcome of the stratified train/test partition: the
// training documents both stages learned from, the held-out test set, and
// the per-input-ticket prediction slots (training tickets pre-filled with
// their ground truth).
type split struct {
	trainTexts, testTexts   []string
	trainLabels, testLabels []int
	testIdx                 []int
	preds                   []int
}

// trainStages runs the stratified split and both k-means training stages.
// This is the single place the classification RNG is consumed — classify
// (the batch path) and TrainOnlineClassifier (the streaming path) both
// call it, so the draw sequence, and therefore every canonical seed's
// output, is identical between them.
func trainStages(tickets []model.Ticket, opts Options, o *obs.Observer) (stage1, stage2 *textmine.Classifier, sp *split, err error) {
	if len(tickets) == 0 {
		return nil, nil, nil, fmt.Errorf("no tickets to classify")
	}
	rng := xrand.New(classifySeed)

	// Stratified labeling: crash tickets are ~2% of the stream, so a
	// uniform manual-labeling sample would teach the clusters nothing
	// about failures. The support staff labeling incident tickets
	// naturally over-samples them, so the training set takes crash
	// tickets at full rate and background tickets at trainFraction,
	// capped so background cannot crowd out the crash examples.
	var trainTexts, testTexts []string
	var trainLabels, testLabels []int
	var testIdx []int
	preds := make([]int, len(tickets))
	crashBudget := maxTrainDocs / 2
	bgBudget := maxTrainDocs - crashBudget
	crashTaken, bgTaken := 0, 0
	for ti, t := range tickets {
		text := t.Description + " " + t.Resolution
		take := false
		if t.IsCrash {
			if crashTaken < crashBudget && rng.Bool(0.9) {
				take = true
				crashTaken++
			}
		} else if rng.Bool(trainFraction) && bgTaken < bgBudget {
			take = true
			bgTaken++
		}
		if take {
			trainTexts = append(trainTexts, text)
			trainLabels = append(trainLabels, labelOf(t))
			preds[ti] = labelOf(t) // hand-labeled tickets keep their truth
		} else {
			testTexts = append(testTexts, text)
			testLabels = append(testLabels, labelOf(t))
			testIdx = append(testIdx, ti)
		}
	}
	if len(trainTexts) == 0 || len(testTexts) == 0 {
		return nil, nil, nil, fmt.Errorf("degenerate train/test split (%d/%d)", len(trainTexts), len(testTexts))
	}

	// Two-stage classification mirroring §III.A: first identify crash
	// tickets among all tickets, then classify the crash tickets into the
	// six finer-grained classes based on their resolutions.
	topts := textmine.DefaultTrainOptions()
	topts.Parallelism = opts.Parallelism
	binLabels := make([]int, len(trainLabels))
	var crashTexts []string
	var crashLabels []int
	for i, l := range trainLabels {
		if l > 0 {
			binLabels[i] = 1
			crashTexts = append(crashTexts, trainTexts[i])
			crashLabels = append(crashLabels, l)
		}
	}
	m := o.Metrics()
	m.Add("ingest.train_docs", int64(len(trainTexts)))
	m.Add("ingest.test_docs", int64(len(testTexts)))

	s1Span := o.Start("train-stage1")
	topts.Observer = o.Under(s1Span)
	stage1, err = textmine.Train(trainTexts, binLabels, topts, rng)
	s1Span.AddItems(len(trainTexts))
	s1Span.End()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stage 1 (crash identification): %w", err)
	}
	fineOpts := topts
	fineOpts.Clusters = 24
	s2Span := o.Start("train-stage2")
	fineOpts.Observer = o.Under(s2Span)
	stage2, err = textmine.Train(crashTexts, crashLabels, fineOpts, rng)
	s2Span.AddItems(len(crashTexts))
	s2Span.End()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stage 2 (crash classification): %w", err)
	}
	return stage1, stage2, &split{
		trainTexts: trainTexts, testTexts: testTexts,
		trainLabels: trainLabels, testLabels: testLabels,
		testIdx: testIdx, preds: preds,
	}, nil
}

// TrainOnlineClassifier trains the two-stage model on a labeled ticket
// population and packages it as a frozen textmine.OnlineClassifier for
// streaming prediction. The training procedure — stratified split, RNG
// draws, both k-means stages — is byte-for-byte the batch classify path,
// so the same seed yields the same model the batch study scored.
func TrainOnlineClassifier(tickets []model.Ticket, opts Options) (*textmine.OnlineClassifier, error) {
	stage1, stage2, _, err := trainStages(tickets, opts, opts.Observer)
	if err != nil {
		return nil, fmt.Errorf("ingest: train online classifier: %w", err)
	}
	return textmine.NewOnlineClassifier(stage1, stage2), nil
}

// classify reproduces the k-means classification step and scores it
// against ground truth (the paper's "manual checking of all tickets").
// It returns the report and the predicted label for every input ticket
// (training tickets keep their manually assigned ground truth, exactly as
// the paper's hand-labeled subset would).
func classify(tickets []model.Ticket, opts Options, o *obs.Observer) (*ClassifierReport, []int, error) {
	stage1, stage2, sp, err := trainStages(tickets, opts, o)
	if err != nil {
		return nil, nil, err
	}
	trainTexts, testTexts := sp.trainTexts, sp.testTexts
	testLabels, testIdx, preds := sp.testLabels, sp.testIdx, sp.preds

	// Predicting the test set is embarrassingly parallel: both stages only
	// read their classifier. Each block reuses one scratch (token and
	// vector buffers) across its tickets instead of reallocating per call.
	// The confusion matrix is tabulated afterwards in test order so its
	// contents don't depend on worker scheduling.
	predSpan := o.Start("predict")
	testPreds := make([]int, len(testTexts))
	online := textmine.NewOnlineClassifier(stage1, stage2)
	nb := par.Blocks(len(testTexts))
	blockDist := make([]int64, nb)
	blockPruned := make([]int64, nb)
	predSpan.AddPool(par.ForEachBlock(opts.Parallelism, len(testTexts), func(b, lo, hi int) {
		var scratch textmine.PredictScratch
		for i := lo; i < hi; i++ {
			testPreds[i] = online.PredictWith(&scratch, testTexts[i])
		}
		blockDist[b] = scratch.Distances
		blockPruned[b] = scratch.Pruned
	}))
	var nDist, nPruned int64
	for b := 0; b < nb; b++ {
		nDist += blockDist[b]
		nPruned += blockPruned[b]
	}
	m := o.Metrics()
	m.Add("textmine.predict_distances", nDist)
	m.Add("textmine.predict_distances_pruned", nPruned)
	predSpan.End()

	cm := &textmine.ConfusionMatrix{Counts: make(map[[2]int]int)}
	seen := make(map[int]bool)
	for i := range testTexts {
		pred := testPreds[i]
		preds[testIdx[i]] = pred
		truth := testLabels[i]
		cm.Counts[[2]int{truth, pred}]++
		cm.Total++
		if pred == truth {
			cm.Hits++
		}
		for _, l := range []int{truth, pred} {
			if !seen[l] {
				seen[l] = true
				cm.Labels = append(cm.Labels, l)
			}
		}
	}
	sort.Ints(cm.Labels)

	// Binary crash-vs-background scoring: collapse labels to crash?=label>0.
	var crashTotal, crashHit, predCrash, predCrashHit, crashClassHit int
	for key, n := range cm.Counts {
		truthCrash := key[0] > 0
		predIsCrash := key[1] > 0
		if truthCrash {
			crashTotal += n
			if predIsCrash {
				crashHit += n
			}
			if key[0] == key[1] {
				crashClassHit += n
			}
		}
		if predIsCrash {
			predCrash += n
			if truthCrash {
				predCrashHit += n
			}
		}
	}
	report := &ClassifierReport{
		TrainDocs:    len(trainTexts),
		TestDocs:     len(testTexts),
		Accuracy:     cm.Accuracy(),
		Confusion:    cm,
		Stage1Purity: stage1.Purity(),
		Stage2Purity: stage2.Purity(),
	}
	if crashTotal > 0 {
		report.CrashRecall = float64(crashHit) / float64(crashTotal)
		report.CrashClassAccuracy = float64(crashClassHit) / float64(crashTotal)
	}
	if predCrash > 0 {
		report.CrashPrecision = float64(predCrashHit) / float64(predCrash)
	}
	o.Log().Info("ticket classification scored against ground truth",
		"accuracy", report.Accuracy, "crash_class_accuracy", report.CrashClassAccuracy,
		"crash_recall", report.CrashRecall, "crash_precision", report.CrashPrecision,
		"stage1_purity", report.Stage1Purity, "stage2_purity", report.Stage2Purity)
	return report, preds, nil
}

// joinAttributes pulls the measurements of interest for every machine from
// the monitoring database. Machines are joined by independent workers into
// an index-addressed slice (all monitordb reads take the read lock), and
// the map is assembled afterwards, so the result is worker-count
// independent.
func joinAttributes(data *model.Dataset, monitor *monitordb.DB, opts Options) map[model.MachineID]model.Attributes {
	o := opts.Observer
	win := opts.Observation
	fineMonths := opts.FineWindow.Duration().Hours() / (24 * 30)
	joined := make([]model.Attributes, len(data.Machines))
	hits := o.Metrics().Counter("ingest.join_hits")
	misses := o.Metrics().Counter("ingest.join_misses")
	joinSpan := o.Start("monitoring-join")
	joinSpan.AddPool(par.ForEach(opts.Parallelism, len(data.Machines), func(i int) {
		m := data.Machines[i]
		var a model.Attributes

		cpu, okCPU := monitor.Average(m.ID, monitordb.MetricCPUUtil, win)
		mem, okMem := monitor.Average(m.ID, monitordb.MetricMemUtil, win)
		dsk, _ := monitor.Average(m.ID, monitordb.MetricDiskUtil, win)
		net, _ := monitor.Average(m.ID, monitordb.MetricNetKbps, win)
		if okCPU && okMem {
			a.CPUUtil, a.MemUtil, a.DiskUtil, a.NetKbps = cpu, mem, dsk, net
			a.HasUsage = true
			hits.Inc()
		} else {
			misses.Inc()
		}

		if m.Kind == model.VM {
			if lvl, ok := monitor.AvgConsolidation(m.ID, win); ok {
				a.AvgConsolidation = lvl
				a.HasConsolidation = true
			}
			if fineMonths > 0 {
				a.OnOffPerMonth = float64(monitor.OnOffCount(m.ID, opts.FineWindow)) / fineMonths
				a.HasOnOff = true
			}
		}

		if first, ok := monitor.FirstSeen(m.ID); ok {
			a.Created = first
			// The paper filters out VMs whose creation date coincides with
			// the earliest observable data — they may predate the records.
			a.AgeKnown = first.After(monitor.Epoch().Add(24 * time.Hour))
		}
		joined[i] = a
	}))
	joinSpan.End()
	if total := hits.Value() + misses.Value(); total > 0 {
		o.Log().Info("monitoring join finished",
			"machines", total, "hits", hits.Value(), "misses", misses.Value(),
			"coverage", float64(hits.Value())/float64(total))
	}
	attrs := make(map[model.MachineID]model.Attributes, len(data.Machines))
	for i, m := range data.Machines {
		attrs[m.ID] = joined[i]
	}
	return attrs
}
