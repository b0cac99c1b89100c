package textmine

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"failscope/internal/xrand"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Server web-01 DOWN, hardware fault on THE disk!")
	want := []string{"server", "web", "01", "down", "hardware", "fault", "disk"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeDropsStopwordsAndShort(t *testing.T) {
	got := Tokenize("a to the ticket issue x y z ok")
	for _, tok := range got {
		if stopwords[tok] || len(tok) < 2 {
			t.Errorf("kept %q", tok)
		}
	}
}

func TestBuildVocabulary(t *testing.T) {
	docs := [][]string{
		{"disk", "failed", "disk"},
		{"disk", "replaced"},
		{"network", "down"},
	}
	v := BuildVocabulary(docs, 2)
	if v.Size() != 1 || v.Tokens[0] != "disk" {
		t.Fatalf("vocabulary: %v", v.Tokens)
	}
	if v.DocFreq[0] != 2 {
		t.Errorf("docfreq = %d (token counted once per doc)", v.DocFreq[0])
	}
	if v.Docs != 3 {
		t.Errorf("Docs = %d", v.Docs)
	}
	all := BuildVocabulary(docs, 1)
	if all.Size() != 5 {
		t.Errorf("minDocs=1 vocabulary size %d", all.Size())
	}
}

func TestVectorizeUnitNorm(t *testing.T) {
	docs := [][]string{{"aa", "bb"}, {"aa", "cc"}, {"bb", "cc", "dd"}}
	v := BuildVocabulary(docs, 1)
	for _, d := range docs {
		vec := v.Vectorize(d)
		if math.Abs(vec.Norm()-1) > 1e-12 {
			t.Errorf("vector norm %v for %v", vec.Norm(), d)
		}
	}
	empty := v.Vectorize([]string{"zz"})
	if len(empty.Idx) != 0 {
		t.Error("unknown tokens should vectorize to empty")
	}
}

func TestSparseVectorOps(t *testing.T) {
	s := SparseVector{Idx: []int{0, 2}, Val: []float64{3, 4}}
	if s.Norm() != 5 {
		t.Errorf("Norm = %v", s.Norm())
	}
	dense := []float64{1, 10, 2}
	if got := s.Dot(dense); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	acc := make([]float64, 3)
	s.AddTo(acc)
	if acc[0] != 3 || acc[1] != 0 || acc[2] != 4 {
		t.Errorf("AddTo = %v", acc)
	}
}

// syntheticCorpus builds well-separated documents in nClasses vocabularies.
func syntheticCorpus(nClasses, perClass int, r *xrand.RNG) (texts []string, labels []int) {
	words := make([][]string, nClasses)
	for c := range words {
		for w := 0; w < 8; w++ {
			words[c] = append(words[c], fmt.Sprintf("class%dword%d", c, w))
		}
	}
	for c := 0; c < nClasses; c++ {
		for i := 0; i < perClass; i++ {
			doc := ""
			for w := 0; w < 6; w++ {
				doc += words[c][r.Intn(len(words[c]))] + " "
			}
			texts = append(texts, doc)
			labels = append(labels, c+1)
		}
	}
	return texts, labels
}

func TestKMeansInvariants(t *testing.T) {
	r := xrand.New(1)
	texts, _ := syntheticCorpus(4, 40, r)
	docs := make([][]string, len(texts))
	for i, s := range texts {
		docs[i] = Tokenize(s)
	}
	vocab := BuildVocabulary(docs, 1)
	vectors := make([]SparseVector, len(docs))
	for i, d := range docs {
		vectors[i] = vocab.Vectorize(d)
	}
	res, err := KMeans(vectors, vocab.Size(), 4, 50, r, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != len(vectors) {
		t.Fatalf("assignments %d", len(res.Assignments))
	}
	if len(res.Centroids) != 4 {
		t.Fatalf("centroids %d", len(res.Centroids))
	}
	// Every document must sit closest to its assigned centroid.
	for i, vec := range vectors {
		best, bestDist := -1, math.Inf(1)
		for c, centroid := range res.Centroids {
			var n2 float64
			for _, v := range centroid {
				n2 += v * v
			}
			d := 1 + n2 - 2*vec.Dot(centroid)
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		if best != res.Assignments[i] {
			t.Fatalf("doc %d assigned to %d but closest is %d", i, res.Assignments[i], best)
		}
	}
	if res.Inertia < 0 {
		t.Errorf("negative inertia %v", res.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 3, 2, 10, xrand.New(1), 1, nil); err == nil {
		t.Error("empty input accepted")
	}
	vecs := []SparseVector{{Idx: []int{0}, Val: []float64{1}}}
	if _, err := KMeans(vecs, 1, 0, 10, xrand.New(1), 1, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(vecs, 1, 2, 10, xrand.New(1), 1, nil); err == nil {
		t.Error("k>n accepted")
	}
}

func TestKMeansInertiaNonIncreasingWithK(t *testing.T) {
	r := xrand.New(3)
	texts, _ := syntheticCorpus(4, 30, r)
	docs := make([][]string, len(texts))
	for i, s := range texts {
		docs[i] = Tokenize(s)
	}
	vocab := BuildVocabulary(docs, 1)
	vectors := make([]SparseVector, len(docs))
	for i, d := range docs {
		vectors[i] = vocab.Vectorize(d)
	}
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		res, err := KMeans(vectors, vocab.Size(), k, 60, xrand.New(7), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.05 { // tolerance: k-means is a heuristic
			t.Errorf("inertia grew markedly from k: %v -> %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestClassifierSeparableCorpus(t *testing.T) {
	r := xrand.New(11)
	texts, labels := syntheticCorpus(5, 60, r)
	clf, err := Train(texts, labels, DefaultTrainOptions(), r)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := clf.Evaluate(texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Accuracy(); acc < 0.95 {
		t.Fatalf("accuracy on separable corpus %.3f", acc)
	}
}

func TestClassifierErrors(t *testing.T) {
	r := xrand.New(1)
	if _, err := Train([]string{"a"}, []int{1, 2}, DefaultTrainOptions(), r); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Train(nil, nil, DefaultTrainOptions(), r); err == nil {
		t.Error("empty corpus accepted")
	}
	clf, err := Train([]string{"disk failed", "network down", "disk failed again"}, []int{1, 2, 1}, DefaultTrainOptions(), r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Evaluate([]string{"x"}, []int{1, 2}); err == nil {
		t.Error("evaluate length mismatch accepted")
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := &ConfusionMatrix{Counts: map[[2]int]int{
		{1, 1}: 8, {1, 2}: 2, // class 1: 8 right, 2 wrong
		{2, 2}: 5, {2, 1}: 5, // class 2: half right
	}, Total: 20, Hits: 13, Labels: []int{1, 2}}
	if got := cm.Accuracy(); got != 0.65 {
		t.Errorf("accuracy %v", got)
	}
	if got := cm.Recall(1); got != 0.8 {
		t.Errorf("recall(1) = %v", got)
	}
	if got := cm.Precision(1); math.Abs(got-8.0/13) > 1e-12 {
		t.Errorf("precision(1) = %v", got)
	}
	if !math.IsNaN(cm.Recall(9)) || !math.IsNaN(cm.Precision(9)) {
		t.Error("metrics for absent label should be NaN")
	}
	empty := &ConfusionMatrix{Counts: map[[2]int]int{}}
	if !math.IsNaN(empty.Accuracy()) {
		t.Error("accuracy of empty matrix should be NaN")
	}
}

func TestSortIntsProperty(t *testing.T) {
	f := func(raw []int) bool {
		a := append([]int(nil), raw...)
		sortInts(a)
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConfusionMatrixJSONRoundTrip: the Counts map is keyed by [2]int,
// which encoding/json cannot represent directly — the custom codec must
// round-trip the matrix losslessly (it rides along in API snapshots).
func TestConfusionMatrixJSONRoundTrip(t *testing.T) {
	cm := &ConfusionMatrix{
		Labels: []int{0, 1, 3},
		Counts: map[[2]int]int{
			{0, 0}: 10, {0, 1}: 2,
			{1, 1}: 7, {1, 3}: 1,
			{3, 3}: 4,
		},
		Total: 24,
		Hits:  21,
	}
	data, err := json.Marshal(cm)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ConfusionMatrix
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(cm, &back) {
		t.Fatalf("round trip: got %+v, want %+v", &back, cm)
	}
	// An empty matrix (no predictions scored yet) must still serialize.
	if _, err := json.Marshal(&ConfusionMatrix{Counts: map[[2]int]int{}}); err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
}
