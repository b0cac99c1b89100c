package textmine

import (
	"math"
	"strings"
	"testing"

	"failscope/internal/obs"
	"failscope/internal/par"
	"failscope/internal/xrand"
)

// exactKMeans is the exhaustive Lloyd reference the pruned kernel is held
// to: the same k-means++ seeding, every document scanned against every
// centroid with SparseVector.Dot each sweep, every centroid rebuilt each
// iteration, and the per-block inertia partials merged in block order.
func exactKMeans(vectors []SparseVector, dim, k, maxIter int, r *xrand.RNG, parallelism int) *KMeansResult {
	n := len(vectors)
	centroids := seedPlusPlus(vectors, dim, k, r, parallelism, nil)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	cNorm2 := make([]float64, k)
	counts := make([]int, k)
	nb := par.Blocks(n)
	blockInertia := make([]float64, nb)
	blockChanged := make([]bool, nb)
	sweep := func(b, lo, hi int) {
		partial, changed := 0.0, false
		for i := lo; i < hi; i++ {
			best, bestDist := -1, math.Inf(1)
			for c := range centroids {
				if d := 1 + cNorm2[c] - 2*vectors[i].Dot(centroids[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			partial += bestDist
		}
		blockInertia[b], blockChanged[b] = partial, changed
	}
	var inertia float64
	iter := 0
	for ; iter < maxIter; iter++ {
		for c := range centroids {
			cNorm2[c] = 0
			for _, v := range centroids[c] {
				cNorm2[c] += v * v
			}
		}
		par.ForEachBlock(parallelism, n, sweep)
		inertia = 0
		changed := false
		for b := 0; b < nb; b++ {
			inertia += blockInertia[b]
			changed = changed || blockChanged[b]
		}
		if !changed {
			break
		}
		for c := range centroids {
			counts[c] = 0
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, vec := range vectors {
			vec.AddTo(centroids[assign[i]])
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				copyInto(centroids[c], vectors[r.Intn(n)])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
	}
	return &KMeansResult{Assignments: assign, Centroids: centroids, Inertia: inertia, Iterations: iter}
}

// TestKMeansPrunedMatchesExact is the guard on the Hamerly-style bound
// pruning: the production kernel must reproduce the exhaustive reference
// bit for bit — assignments, centroids, inertia, iteration count and the
// RNG draw sequence (checked implicitly through reseeds).
func TestKMeansPrunedMatchesExact(t *testing.T) {
	docs := clusterCorpus(1100)
	vocab := BuildVocabulary(docs, 1)
	vectors := make([]SparseVector, len(docs))
	for i, d := range docs {
		vectors[i] = vocab.Vectorize(d)
	}

	for _, workers := range []int{1, 2, 0} {
		exact := exactKMeans(vectors, vocab.Size(), 16, 40, xrand.New(5), workers)
		pruned, err := KMeans(vectors, vocab.Size(), 16, 40, xrand.New(5), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Iterations != exact.Iterations {
			t.Fatalf("workers=%d: %d iterations pruned, %d exact", workers, pruned.Iterations, exact.Iterations)
		}
		if pruned.Inertia != exact.Inertia {
			t.Fatalf("workers=%d: inertia %v pruned, %v exact", workers, pruned.Inertia, exact.Inertia)
		}
		for i := range exact.Assignments {
			if pruned.Assignments[i] != exact.Assignments[i] {
				t.Fatalf("workers=%d: assignment[%d] = %d pruned, %d exact",
					workers, i, pruned.Assignments[i], exact.Assignments[i])
			}
		}
		for c := range exact.Centroids {
			for j := range exact.Centroids[c] {
				if pruned.Centroids[c][j] != exact.Centroids[c][j] {
					t.Fatalf("workers=%d: centroid[%d][%d] differs", workers, c, j)
				}
			}
		}
	}
}

// TestKMeansPruningActuallyPrunes checks the published counters: on a
// clustered corpus the bound must eliminate a meaningful share of distance
// evaluations (a converging run spends most of its sweeps on points whose
// assignment is stable, exactly where the bound bites).
func TestKMeansPruningActuallyPrunes(t *testing.T) {
	docs := clusterCorpus(1100)
	vocab := BuildVocabulary(docs, 1)
	vectors := make([]SparseVector, len(docs))
	for i, d := range docs {
		vectors[i] = vocab.Vectorize(d)
	}
	// Count via the metrics the kernel publishes on its observer.
	o := obs.NewObserver("pruning-test")
	if _, err := KMeans(vectors, vocab.Size(), 16, 40, xrand.New(5), 1, o); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics().Snapshot()
	dist := int64(snap["textmine.kmeans_distances"])
	prunedN := int64(snap["textmine.kmeans_distances_pruned"])
	if prunedN == 0 {
		t.Fatal("pruning never skipped a distance evaluation")
	}
	if frac := float64(prunedN) / float64(dist+prunedN); frac < 0.05 {
		t.Fatalf("pruned only %.1f%% of %d evaluations — bound not biting", 100*frac, dist+prunedN)
	}
	t.Logf("pruned %d of %d evaluations (%.1f%%)", prunedN, dist+prunedN, 100*float64(prunedN)/float64(dist+prunedN))
}

// TestPredictPrunedMatchesExact holds the triangle-inequality Predict
// against a classifier stripped of its inter-centroid cache (which
// disables pruning) on every training document.
func TestPredictPrunedMatchesExact(t *testing.T) {
	docs := clusterCorpus(600)
	texts := make([]string, len(docs))
	labels := make([]int, len(docs))
	for i, d := range docs {
		texts[i] = strings.Join(d, " ")
		labels[i] = i % 4
	}
	opts := DefaultTrainOptions()
	opts.Clusters = 12
	opts.Parallelism = 1
	c, err := Train(texts, labels, opts, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.ccDist == nil {
		t.Fatal("trained classifier has no inter-centroid distance cache")
	}
	exact := &Classifier{vocab: c.vocab, centroids: c.centroids, norms: c.norms, labels: c.labels}
	var scratch PredictScratch
	for i, text := range texts {
		if got, want := c.PredictWith(&scratch, text), exact.Predict(text); got != want {
			t.Fatalf("doc %d: pruned predict %d, exact %d", i, got, want)
		}
	}
	if scratch.Pruned == 0 {
		t.Fatal("predict pruning never skipped a centroid")
	}
}

// TestAppendTokensMatchesTokenize pins the single-pass ASCII scanner (and
// its non-ASCII fallback) to the reference field-splitting semantics.
func TestAppendTokensMatchesTokenize(t *testing.T) {
	cases := []string{
		"",
		"a",
		"Disk DISK disk",
		"RAID-5 controller failed; replaced the array at 03:15!",
		"the a an and of is",        // all stopwords
		"x1 Y2 zz ... __ 42 a1b2c3", // short tokens and digits
		"  leading and trailing   whitespace  ",
		"CPU%util=97.5,mem@host-42",
		"über café naïve — non-ASCII résumé",  // slow path
		"mixed ascii und später Ümlaute DISK", // slow path with upper ASCII
		"ticket Please TEAM issue per",        // stopwords in upper case
		strings.Repeat("kernel panic deadlock ", 50),
	}
	for _, text := range cases {
		want := appendTokensSlow(nil, text)
		got := Tokenize(text)
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, want %d (%v vs %v)", text, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: token %d = %q, want %q", text, i, got[i], want[i])
			}
		}
		// Buffer-reuse path appends identically.
		buf := make([]string, 0, 8)
		buf = append(buf, "sentinel")
		buf = AppendTokens(buf, text)
		if buf[0] != "sentinel" || len(buf)-1 != len(want) {
			t.Fatalf("%q: AppendTokens mangled the destination buffer", text)
		}
	}
}
