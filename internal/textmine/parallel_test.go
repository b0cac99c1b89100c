package textmine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"failscope/internal/xrand"
)

// clusterCorpus builds a corpus large enough to span several par blocks
// with a few obvious clusters and plenty of noise.
func clusterCorpus(n int) [][]string {
	themes := [][]string{
		{"disk", "raid", "controller", "replaced", "array"},
		{"switch", "vlan", "uplink", "port", "connectivity"},
		{"kernel", "panic", "hung", "middleware", "deadlock"},
		{"pdu", "breaker", "outage", "electrical", "feeds"},
	}
	r := xrand.New(11)
	docs := make([][]string, n)
	for i := range docs {
		theme := themes[i%len(themes)]
		doc := append([]string(nil), theme[:2+r.Intn(3)]...)
		doc = append(doc, fmt.Sprintf("host%d", r.Intn(40)))
		if r.Bool(0.3) {
			doc = append(doc, themes[r.Intn(len(themes))][r.Intn(5)])
		}
		docs[i] = doc
	}
	return docs
}

// TestKMeansParallelMatchesSequential is the kernel-level determinism
// check: every worker count must reproduce the sequential run bit for bit
// — assignments, centroids, inertia and the iteration count.
func TestKMeansParallelMatchesSequential(t *testing.T) {
	docs := clusterCorpus(1100) // > 4 blocks of 256
	vocab := BuildVocabulary(docs, 1)
	vectors := make([]SparseVector, len(docs))
	for i, d := range docs {
		vectors[i] = vocab.Vectorize(d)
	}

	ref, err := KMeans(vectors, vocab.Size(), 8, 40, xrand.New(5), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 0} {
		got, err := KMeans(vectors, vocab.Size(), 8, 40, xrand.New(5), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("workers=%d: %d iterations, sequential %d", workers, got.Iterations, ref.Iterations)
		}
		if got.Inertia != ref.Inertia {
			t.Fatalf("workers=%d: inertia %v, sequential %v", workers, got.Inertia, ref.Inertia)
		}
		for i := range ref.Assignments {
			if got.Assignments[i] != ref.Assignments[i] {
				t.Fatalf("workers=%d: assignment[%d] = %d, sequential %d",
					workers, i, got.Assignments[i], ref.Assignments[i])
			}
		}
		for c := range ref.Centroids {
			for j := range ref.Centroids[c] {
				if got.Centroids[c][j] != ref.Centroids[c][j] {
					t.Fatalf("workers=%d: centroid[%d][%d] differs", workers, c, j)
				}
			}
		}
	}
}

// TestTrainParallelMatchesSequential checks the full classifier: training
// with any worker count must give identical predictions on every document.
func TestTrainParallelMatchesSequential(t *testing.T) {
	docs := clusterCorpus(600)
	texts := make([]string, len(docs))
	labels := make([]int, len(docs))
	for i, d := range docs {
		for _, tok := range d {
			texts[i] += tok + " "
		}
		labels[i] = i % 4
	}
	opts := DefaultTrainOptions()
	opts.Clusters = 12
	opts.Parallelism = 1
	ref, err := Train(texts, labels, opts, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		opts.Parallelism = workers
		got, err := Train(texts, labels, opts, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range texts {
			if got.Predict(text) != ref.Predict(text) {
				t.Fatalf("workers=%d: prediction for doc %d differs", workers, i)
			}
		}
	}
}

// TestVectorizeTermFrequencies pins the run-length TF counting against a
// direct map-based computation.
func TestVectorizeTermFrequencies(t *testing.T) {
	docs := [][]string{
		{"disk", "disk", "raid", "disk", "switch"},
		{"raid", "switch"},
	}
	vocab := BuildVocabulary(docs, 1)
	vec := vocab.Vectorize(docs[0])
	if len(vec.Idx) != 3 {
		t.Fatalf("distinct terms = %d, want 3", len(vec.Idx))
	}
	// tf(disk)=3 must outweigh tf(raid)=1 at equal document frequency.
	var diskVal, raidVal float64
	for i, idx := range vec.Idx {
		switch vocab.Tokens[idx] {
		case "disk":
			diskVal = vec.Val[i]
		case "raid":
			raidVal = vec.Val[i]
		}
	}
	if !(diskVal > raidVal) {
		t.Fatalf("tf weighting lost: disk %v vs raid %v", diskVal, raidVal)
	}
	if n := vec.Norm(); math.Abs(n-1) > 1e-12 {
		t.Fatalf("norm %v", n)
	}
}
