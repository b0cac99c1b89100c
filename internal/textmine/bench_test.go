package textmine

import (
	"sync"
	"testing"

	"failscope/internal/xrand"
)

var benchVectors struct {
	once sync.Once
	vecs []SparseVector
	dim  int
}

func benchKMeansInput(b *testing.B) ([]SparseVector, int) {
	b.Helper()
	benchVectors.once.Do(func() {
		docs := clusterCorpus(1100)
		vocab := BuildVocabulary(docs, 1)
		benchVectors.vecs = make([]SparseVector, len(docs))
		for i, d := range docs {
			benchVectors.vecs[i] = vocab.Vectorize(d)
		}
		benchVectors.dim = vocab.Size()
	})
	return benchVectors.vecs, benchVectors.dim
}

func benchKMeansRun(b *testing.B, run func(vecs []SparseVector, dim int) *KMeansResult) {
	vecs, dim := benchKMeansInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := run(vecs, dim); len(res.Centroids) != 32 {
			b.Fatalf("got %d centroids", len(res.Centroids))
		}
	}
}

// BenchmarkKMeans_Exact is the exhaustive-scan baseline the pruned kernel
// is held against (same vectors, seed and sweep budget).
func BenchmarkKMeans_Exact(b *testing.B) {
	benchKMeansRun(b, func(vecs []SparseVector, dim int) *KMeansResult {
		return exactKMeans(vecs, dim, 32, 40, xrand.New(5), 1)
	})
}

// BenchmarkKMeans_Pruned runs the production Hamerly-style bounded kernel.
func BenchmarkKMeans_Pruned(b *testing.B) {
	benchKMeansRun(b, func(vecs []SparseVector, dim int) *KMeansResult {
		res, err := KMeans(vecs, dim, 32, 40, xrand.New(5), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		return res
	})
}
