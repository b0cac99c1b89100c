package textmine

import (
	"encoding/json"
	"fmt"
	"math"

	"failscope/internal/obs"
	"failscope/internal/par"
	"failscope/internal/xrand"
)

// Classifier assigns integer labels to documents by nearest k-means
// centroid, with each cluster labeled by the majority ground-truth label of
// its manually labeled training documents — the "manual labeling and
// k-means clustering ... in a best-effort manner" procedure of §III.A.
type Classifier struct {
	vocab     *Vocabulary
	centroids [][]float64
	norms     []float64 // squared norms of centroids, cached for Predict
	// ccDist[i][j] is the Euclidean distance between centroids i and j,
	// cached at training time so Predict can skip centroids by the
	// triangle inequality (nil disables pruning).
	ccDist [][]float64
	labels []int   // label per centroid
	purity float64 // training-set cluster purity, see Purity
}

// TrainOptions controls classifier training.
type TrainOptions struct {
	Clusters int // number of k-means clusters; ≥ number of distinct labels
	// Parallelism is the worker count for tokenization, vectorization and
	// the k-means sweeps: 0 means GOMAXPROCS, 1 the sequential reference.
	// The trained classifier is identical at every setting.
	Parallelism int

	// Observer, when non-nil, records training sub-stage spans (tokenize,
	// vectorize, kmeans seeding and Lloyd sweeps, cluster labeling) and
	// textmine metrics. It never touches the RNG: the trained classifier
	// is identical with and without it.
	Observer *obs.Observer
}

// DefaultTrainOptions mirrors the paper's setup: more clusters than
// classes so heterogeneous phrasing can split.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Clusters: 64}
}

// maxIter caps Lloyd's iterations; training stops earlier once the
// assignments settle.
const maxIter = 60

// minDocs is the vocabulary's document-frequency floor: a term seen in a
// single training document is noise to the clustering.
const minDocs = 2

// Train builds a classifier from documents and their ground-truth labels.
func Train(texts []string, labels []int, opts TrainOptions, r *xrand.RNG) (*Classifier, error) {
	if len(texts) != len(labels) {
		return nil, fmt.Errorf("textmine: %d texts but %d labels", len(texts), len(labels))
	}
	if len(texts) == 0 {
		return nil, ErrNoData
	}
	o := opts.Observer
	tokSpan := o.Start("tokenize")
	docs := make([][]string, len(texts))
	tokSpan.AddPool(par.ForEach(opts.Parallelism, len(texts), func(i int) {
		docs[i] = Tokenize(texts[i])
	}))
	tokSpan.End()

	vecSpan := o.Start("vectorize")
	vocab := BuildVocabulary(docs, minDocs)
	vectors := make([]SparseVector, len(docs))
	vecSpan.AddPool(par.ForEach(opts.Parallelism, len(docs), func(i int) {
		vectors[i] = vocab.Vectorize(docs[i])
	}))
	vecSpan.End()
	o.Metrics().Gauge("textmine.vocab_size").Set(float64(vocab.Size()))

	k := opts.Clusters
	if k > len(vectors) {
		k = len(vectors)
	}
	res, err := KMeans(vectors, vocab.Size(), k, maxIter, r, opts.Parallelism, o)
	if err != nil {
		return nil, err
	}

	// Majority-vote label per cluster over every training label. Votes
	// are weighted by inverse square-root class frequency so that rare
	// classes (hardware, network) can claim the clusters they dominate
	// relatively, instead of being outvoted by the bulk classes everywhere.
	lblSpan := o.Start("label-clusters")
	defer lblSpan.End()
	votes := make([]map[int]float64, k)
	raw := make([]map[int]int, k) // unweighted counts, for the purity score
	for c := range votes {
		votes[c] = make(map[int]float64)
		raw[c] = make(map[int]int)
	}
	classFreq := make(map[int]int)
	for _, l := range labels {
		classFreq[l]++
	}
	for i, c := range res.Assignments {
		lbl := labels[i]
		votes[c][lbl] += 1 / math.Sqrt(float64(classFreq[lbl]))
		raw[c][lbl]++
	}
	clusterLabels := make([]int, k)
	globalMajority := majorityLabel(labels)
	for c := range votes {
		best, bestN := globalMajority, -1.0
		for lbl, n := range votes[c] {
			if n > bestN || (n == bestN && lbl < best) {
				best, bestN = lbl, n
			}
		}
		clusterLabels[c] = best
	}
	// Cluster purity: the fraction of labeled training documents that sit
	// in a cluster dominated by their own label. Low purity means the text
	// clusters do not align with the resolution classes, so the cluster
	// labeling — and everything downstream — rests on mixed evidence.
	var pureDocs, labeledDocs int
	for c := range raw {
		total, max := 0, 0
		for _, n := range raw[c] {
			total += n
			if n > max {
				max = n
			}
		}
		pureDocs += max
		labeledDocs += total
	}
	purity := 0.0
	if labeledDocs > 0 {
		purity = float64(pureDocs) / float64(labeledDocs)
	}
	o.Metrics().Gauge("textmine.cluster_purity").Set(purity)
	if purity < 0.5 {
		o.Log().Warn("low k-means cluster purity", "purity", purity, "clusters", k, "labeled_docs", labeledDocs)
	}

	norms := make([]float64, len(res.Centroids))
	for i, c := range res.Centroids {
		for _, v := range c {
			norms[i] += v * v
		}
	}
	return &Classifier{
		vocab:     vocab,
		centroids: res.Centroids,
		norms:     norms,
		ccDist:    centroidDistances(res.Centroids, opts.Parallelism),
		labels:    clusterLabels,
		purity:    purity,
	}, nil
}

// centroidDistances returns the k×k Euclidean inter-centroid distance
// matrix, the cache Predict's triangle-inequality pruning reads. Rows fan
// out over parallelism workers; row i owns every (i, j>i) pair, so the two
// symmetric cells are written by exactly one worker.
func centroidDistances(centroids [][]float64, parallelism int) [][]float64 {
	k := len(centroids)
	backing := make([]float64, k*k)
	dist := make([][]float64, k)
	for i := range dist {
		dist[i] = backing[i*k : (i+1)*k : (i+1)*k]
	}
	par.ForEach(parallelism, k, func(i int) {
		ci := centroids[i]
		for j := i + 1; j < k; j++ {
			ss := 0.0
			for m, v := range ci {
				dv := v - centroids[j][m]
				ss += dv * dv
			}
			d := math.Sqrt(ss)
			dist[i][j] = d
			dist[j][i] = d
		}
	})
	return dist
}

func majorityLabel(labels []int) int {
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	best, bestN := 0, -1
	for lbl, n := range counts {
		if n > bestN || (n == bestN && lbl < best) {
			best, bestN = lbl, n
		}
	}
	return best
}

// Purity returns the training-set cluster purity: the fraction of labeled
// training documents whose cluster is dominated by their own label (1.0 =
// every cluster is single-class). Computed over the manually labeled
// subset the cluster labeling consulted.
func (c *Classifier) Purity() float64 { return c.purity }

// PredictScratch carries the reusable buffers and pruning counters of a
// prediction loop. A scratch may be reused across any number of PredictWith
// calls (and across classifiers) but not from concurrent goroutines; the
// zero value is ready to use.
type PredictScratch struct {
	tokens []string
	idxs   []int
	vals   []float64

	// Distances counts centroid distance evaluations performed and Pruned
	// the evaluations skipped by the triangle-inequality bound; callers
	// fold them into their metrics registry.
	Distances int64
	Pruned    int64
}

// Predict returns the label of the nearest centroid. It only reads the
// classifier, so callers may predict from concurrent workers. Loops that
// predict many tickets should reuse a PredictScratch via PredictWith to
// avoid the per-call buffer allocations.
func (c *Classifier) Predict(text string) int {
	var s PredictScratch
	return c.PredictWith(&s, text)
}

// PredictWith is Predict with caller-owned scratch buffers.
func (c *Classifier) PredictWith(s *PredictScratch, text string) int {
	s.tokens = AppendTokens(s.tokens[:0], text)
	return c.predictTokens(s, s.tokens)
}

// predictTokens classifies an already-tokenized document. Centroids are
// scanned in index order exactly as the exhaustive loop would, except that
// centroid i is skipped when the cached inter-centroid distance proves it
// strictly farther than the incumbent: with e = ‖x−c_best‖, the triangle
// inequality gives ‖x−c_i‖ ≥ ‖c_best−c_i‖ − e > e + boundEps, so the
// skipped evaluation could never have won (nor tied — boundEps absorbs
// rounding), leaving the chosen label bit-identical to the full scan.
func (c *Classifier) predictTokens(s *PredictScratch, tokens []string) int {
	vec := c.vocab.vectorizeInto(s.idxs, s.vals, tokens)
	s.idxs, s.vals = vec.Idx, vec.Val
	best, bestDist := 0, math.Inf(1)
	eBest := math.Inf(1)
	for i, centroid := range c.centroids {
		if c.ccDist != nil && !math.IsInf(eBest, 1) && c.ccDist[best][i] >= 2*eBest+boundEps {
			s.Pruned++
			continue
		}
		d := 1 + c.norms[i] - 2*vec.Dot(centroid)
		s.Distances++
		if d < bestDist {
			best, bestDist = i, d
			eBest = math.Sqrt(math.Max(d, 0))
		}
	}
	return c.labels[best]
}

// ConfusionMatrix tabulates predictions against ground truth.
type ConfusionMatrix struct {
	Labels []int
	Counts map[[2]int]int // [truth, predicted] -> count
	Total  int
	Hits   int
}

// Evaluate scores the classifier on a labeled test set.
func (c *Classifier) Evaluate(texts []string, truth []int) (*ConfusionMatrix, error) {
	if len(texts) != len(truth) {
		return nil, fmt.Errorf("textmine: %d texts but %d labels", len(texts), len(truth))
	}
	cm := &ConfusionMatrix{Counts: make(map[[2]int]int)}
	seen := make(map[int]bool)
	var scratch PredictScratch
	for i, t := range texts {
		pred := c.PredictWith(&scratch, t)
		cm.Counts[[2]int{truth[i], pred}]++
		cm.Total++
		if pred == truth[i] {
			cm.Hits++
		}
		if !seen[truth[i]] {
			seen[truth[i]] = true
			cm.Labels = append(cm.Labels, truth[i])
		}
		if !seen[pred] {
			seen[pred] = true
			cm.Labels = append(cm.Labels, pred)
		}
	}
	sortInts(cm.Labels)
	return cm, nil
}

// confusionJSON is the wire form of a ConfusionMatrix: the Counts map is
// keyed by [2]int, which encoding/json cannot represent, so it travels as
// a dense matrix in Labels order (rows = truth, cols = predicted).
type confusionJSON struct {
	Labels []int   `json:"labels"`
	Counts [][]int `json:"counts"`
	Total  int     `json:"total"`
	Hits   int     `json:"hits"`
}

// MarshalJSON implements json.Marshaler.
func (cm *ConfusionMatrix) MarshalJSON() ([]byte, error) {
	cj := confusionJSON{Labels: cm.Labels, Total: cm.Total, Hits: cm.Hits}
	if cj.Labels == nil {
		cj.Labels = []int{}
	}
	cj.Counts = make([][]int, len(cm.Labels))
	for i, truth := range cm.Labels {
		cj.Counts[i] = make([]int, len(cm.Labels))
		for j, pred := range cm.Labels {
			cj.Counts[i][j] = cm.Counts[[2]int{truth, pred}]
		}
	}
	return json.Marshal(cj)
}

// UnmarshalJSON implements json.Unmarshaler.
func (cm *ConfusionMatrix) UnmarshalJSON(data []byte) error {
	var cj confusionJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	if len(cj.Counts) != len(cj.Labels) {
		return fmt.Errorf("textmine: confusion matrix has %d rows for %d labels", len(cj.Counts), len(cj.Labels))
	}
	cm.Labels = cj.Labels
	cm.Total = cj.Total
	cm.Hits = cj.Hits
	cm.Counts = make(map[[2]int]int)
	for i, row := range cj.Counts {
		if len(row) != len(cj.Labels) {
			return fmt.Errorf("textmine: confusion matrix row %d has %d columns for %d labels", i, len(row), len(cj.Labels))
		}
		for j, n := range row {
			if n != 0 {
				cm.Counts[[2]int{cj.Labels[i], cj.Labels[j]}] = n
			}
		}
	}
	return nil
}

// Accuracy returns the fraction of correct predictions.
func (cm *ConfusionMatrix) Accuracy() float64 {
	if cm.Total == 0 {
		return math.NaN()
	}
	return float64(cm.Hits) / float64(cm.Total)
}

// Recall returns the per-label recall; NaN when the label never occurs.
func (cm *ConfusionMatrix) Recall(label int) float64 {
	total, hit := 0, 0
	for key, n := range cm.Counts {
		if key[0] == label {
			total += n
			if key[1] == label {
				hit += n
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(total)
}

// Precision returns the per-label precision; NaN when never predicted.
func (cm *ConfusionMatrix) Precision(label int) float64 {
	total, hit := 0, 0
	for key, n := range cm.Counts {
		if key[1] == label {
			total += n
			if key[0] == label {
				hit += n
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(total)
}
