package fidelity

import (
	"math"
	"sort"

	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// ClassScore is one row of the six-class confusion summary: how well one
// resolution class (or the background pseudo-class) was recovered.
type ClassScore struct {
	Class     string  `json:"class"`
	Truth     int     `json:"truth"`     // ground-truth tickets in the test set
	Predicted int     `json:"predicted"` // tickets the classifier assigned here
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// DropAccounting reconciles what the simulator produced against what the
// sanitized pipeline kept — the §III.A "data sanitization" bookkeeping.
// Counts are read from the run's metrics registry and are zero when the
// run was unobserved.
type DropAccounting struct {
	TicketsGenerated      int64 `json:"tickets_generated"`
	TicketsInWindow       int64 `json:"tickets_in_window"`
	TicketsWindowDropped  int64 `json:"tickets_window_dropped"`
	MonitorSamples        int64 `json:"monitor_samples"`
	MonitorSamplesDropped int64 `json:"monitor_samples_dropped"`
	// Consistent is true when generated = kept + dropped held for every
	// accounted stream that had data.
	Consistent bool `json:"consistent"`
}

// Quality scores the collection pipeline against the simulator's ground
// truth. Classifier-derived fields are present only when classification
// ran; registry-derived fields (drops, join coverage) only when the run
// was observed.
type Quality struct {
	ClassifierRan bool `json:"classifier_ran"`
	TrainDocs     int  `json:"train_docs,omitempty"`
	TestDocs      int  `json:"test_docs,omitempty"`

	// Crash-ticket mining: the binary crash-vs-background decision.
	CrashPrecision float64 `json:"crash_precision,omitempty"`
	CrashRecall    float64 `json:"crash_recall,omitempty"`
	CrashF1        float64 `json:"crash_f1,omitempty"`

	// Six-class resolution accuracy over true crash tickets (the paper's
	// ≈87%), plus the per-class confusion summary.
	CrashClassAccuracy float64      `json:"crash_class_accuracy,omitempty"`
	OverallAccuracy    float64      `json:"overall_accuracy,omitempty"`
	PerClass           []ClassScore `json:"per_class,omitempty"`

	// k-means cluster purity of the two training stages.
	Stage1Purity float64 `json:"stage1_purity,omitempty"`
	Stage2Purity float64 `json:"stage2_purity,omitempty"`

	Drops *DropAccounting `json:"drops,omitempty"`

	// Monitoring-join coverage: fraction of machines whose usage series
	// were found in the monitoring DB.
	JoinHits     int64   `json:"join_hits,omitempty"`
	JoinMisses   int64   `json:"join_misses,omitempty"`
	JoinCoverage float64 `json:"join_coverage,omitempty"`
}

// classLabelName maps a confusion-matrix label to its display name.
func classLabelName(l int) string {
	if l == 0 {
		return "background"
	}
	return model.FailureClass(l).String()
}

// ScoreQuality computes the ground-truth quality report for a run.
func ScoreQuality(in Input) *Quality {
	q := &Quality{}
	if cr := in.Classifier; cr != nil {
		q.ClassifierRan = true
		q.TrainDocs = cr.TrainDocs
		q.TestDocs = cr.TestDocs
		q.CrashPrecision = cr.CrashPrecision
		q.CrashRecall = cr.CrashRecall
		if s := cr.CrashPrecision + cr.CrashRecall; s > 0 {
			q.CrashF1 = 2 * cr.CrashPrecision * cr.CrashRecall / s
		}
		q.CrashClassAccuracy = cr.CrashClassAccuracy
		q.OverallAccuracy = cr.Accuracy
		q.Stage1Purity = cr.Stage1Purity
		q.Stage2Purity = cr.Stage2Purity
		if cm := cr.Confusion; cm != nil {
			labels := append([]int(nil), cm.Labels...)
			sort.Ints(labels)
			for _, l := range labels {
				cs := ClassScore{Class: classLabelName(l)}
				for key, n := range cm.Counts {
					if key[0] == l {
						cs.Truth += n
					}
					if key[1] == l {
						cs.Predicted += n
					}
				}
				cs.Precision = nanToZero(cm.Precision(l))
				cs.Recall = nanToZero(cm.Recall(l))
				if s := cs.Precision + cs.Recall; s > 0 {
					cs.F1 = 2 * cs.Precision * cs.Recall / s
				}
				q.PerClass = append(q.PerClass, cs)
			}
		}
	}

	if m := in.Metrics; len(m) > 0 {
		d := &DropAccounting{
			TicketsGenerated:      int64(m["dcsim.tickets"]),
			TicketsInWindow:       int64(m["ingest.tickets_in_window"]),
			TicketsWindowDropped:  int64(m["ingest.tickets_window_dropped"]),
			MonitorSamples:        int64(m[monitordb.MetricSamples]),
			MonitorSamplesDropped: int64(m[monitordb.MetricSamplesDropped]),
		}
		d.Consistent = d.TicketsGenerated == 0 ||
			d.TicketsGenerated == d.TicketsInWindow+d.TicketsWindowDropped
		q.Drops = d

		q.JoinHits = int64(m["ingest.join_hits"])
		q.JoinMisses = int64(m["ingest.join_misses"])
		if total := q.JoinHits + q.JoinMisses; total > 0 {
			q.JoinCoverage = float64(q.JoinHits) / float64(total)
		}
	}
	return q
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
