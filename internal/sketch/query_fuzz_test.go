package sketch

import (
	"bytes"
	"math"
	"testing"

	"failscope/internal/binimg"
)

// fuzzProbes are the ranks FuzzQuantileQuery asks after every step: the
// exact extremes, the tails the histograms report and the quartiles the
// engine reports.
var fuzzProbes = []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1}

// FuzzQuantileQuery runs fuzzed sequences of Add, Merge, Query and image
// round trips over two small sketches and holds every Query and
// Quantiles answer to queryReference bit for bit. Values come from seven
// levels, so equal values sit at several sketch levels with different
// weights: the ties slices.SortFunc must order exactly as sort.Slice
// does. Each step is three bytes — an op, a sketch selector and an
// argument.
func FuzzQuantileQuery(f *testing.F) {
	f.Add([]byte{3, 4, 0, 40, 0, 0, 40, 1, 2, 0, 0})
	f.Add([]byte{1, 1, 0, 255, 0, 1, 200, 2, 0, 0, 3, 0, 0, 0, 0, 90, 2, 1, 0})
	f.Add([]byte{0, 7, 0, 0, 7, 1, 3, 0, 0, 0, 0, 1, 0, 0, 2, 2, 1, 0, 3, 1, 0})
	f.Add([]byte{5, 6, 0, 0, 255, 0, 1, 255, 3, 0, 0, 2, 0, 0, 0, 3, 1, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Small capacities compact often, so a short input reaches deep
		// levels; k = 1 also covers a sketch whose items all vanish.
		qs := [2]*Quantile{NewQuantile(1 + int(data[0]%8)), NewQuantile(1 + int(data[1]%8))}
		data = data[2:]
		for step := 0; len(data) >= 3 && step < 64; step++ {
			op, which, arg := data[0]%4, int(data[1]%2), int(data[2])
			data = data[3:]
			q := qs[which]
			switch op {
			case 0: // a run of adds cycling through the value levels
				for i := 0; i <= arg; i++ {
					q.Add(float64((arg+i*(1+which))%7) - 3)
				}
			case 1: // fold the other sketch in
				q.Merge(qs[1-which])
			case 2: // reads must leave the sketch as they found it
				before := quantileImage(t, q)
				q.Quantiles(fuzzProbes, make([]float64, len(fuzzProbes)))
				if !bytes.Equal(quantileImage(t, q), before) {
					t.Fatalf("step %d: Quantiles changed the sketch's image", step)
				}
			case 3: // image round trip
				r := binimg.NewReader(bytes.NewReader(quantileImage(t, q)))
				back := ReadQuantileImage(r)
				if err := r.Err(); err != nil || back == nil {
					t.Fatalf("step %d: image round trip: %v", step, err)
				}
				qs[which] = back
			}
			all := make([]float64, len(fuzzProbes))
			for i, q := range qs {
				q.Quantiles(fuzzProbes, all)
				for j, p := range fuzzProbes {
					want := queryReference(q, p)
					if got := q.Query(p); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d op %d: sketch %d (k %d, n %d) p=%v: Query %v, reference %v",
							step, op, i, q.k, q.n, p, got, want)
					}
					if math.Float64bits(all[j]) != math.Float64bits(want) {
						t.Fatalf("step %d op %d: sketch %d (k %d, n %d) p=%v: Quantiles %v, reference %v",
							step, op, i, q.k, q.n, p, all[j], want)
					}
				}
			}
		}
	})
}

// quantileImage is q's image bytes.
func quantileImage(t *testing.T, q *Quantile) []byte {
	var buf bytes.Buffer
	w := binimg.NewWriter(&buf)
	WriteQuantileImage(w, q)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
