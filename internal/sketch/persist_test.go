package sketch

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"failscope/internal/binimg"
)

// roundTrip writes an image with write and reads it back with read,
// requiring the read to consume every byte without error.
func roundTrip[T any](t *testing.T, write func(*binimg.Writer), read func(*binimg.Reader) T) T {
	t.Helper()
	var buf bytes.Buffer
	w := binimg.NewWriter(&buf)
	write(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	r := binimg.NewReader(rd)
	got := read(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Raw(1), r.Err(); err == nil {
		t.Fatal("image has trailing bytes")
	}
	return got
}

// TestMomentsStateRoundTrip pins exact field-level restoration: a restored
// accumulator must be indistinguishable from the original, including on
// future Adds.
func TestMomentsStateRoundTrip(t *testing.T) {
	var m Moments
	for i := 0; i < 1000; i++ {
		m.Add(math.Sin(float64(i)) * float64(i%37))
	}
	r := roundTrip(t, m.WriteImage, func(rd *binimg.Reader) (r Moments) { r.ReadImage(rd); return r })
	if !reflect.DeepEqual(m, r) {
		t.Fatalf("restored Moments differ: %+v vs %+v", m, r)
	}
	// Future adds must track exactly.
	for i := 0; i < 100; i++ {
		v := float64(i) * 0.731
		m.Add(v)
		r.Add(v)
	}
	if !reflect.DeepEqual(m, r) {
		t.Fatalf("Moments diverge after post-restore adds: %+v vs %+v", m, r)
	}
}

// TestQuantileStateRoundTrip requires the full sketch — level contents,
// compaction parity, extremes — to survive a state round trip, proven by
// DeepEqual now and by continued identical behavior under further Adds
// (which exercises the compaction counter's parity).
func TestQuantileStateRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 257, 10000} {
		q := NewQuantile(64)
		for i := 0; i < n; i++ {
			q.Add(math.Cos(float64(i)) * 100)
		}
		r := roundTrip(t,
			func(w *binimg.Writer) { WriteQuantileImage(w, q) },
			ReadQuantileImage)
		if r == nil {
			if n != 0 {
				t.Fatalf("n=%d: restored nil", n)
			}
			r = NewQuantile(64)
		}
		if !reflect.DeepEqual(q, r) {
			t.Fatalf("n=%d: restored Quantile differs:\n%+v\n%+v", n, q, r)
		}
		// Push both through several more compaction cycles.
		for i := 0; i < 5000; i++ {
			v := math.Sin(float64(i)*0.37) * 50
			q.Add(v)
			r.Add(v)
		}
		if !reflect.DeepEqual(q, r) {
			t.Fatalf("n=%d: Quantile diverges after post-restore adds", n)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			a, b := q.Query(p), r.Query(p)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("n=%d p=%g: query %v vs %v", n, p, a, b)
			}
		}
	}
}

// TestRestoreQuantileNilForZeroState maps a nil sketch pointer, an
// accumulator that never saw a sample, back to nil.
func TestRestoreQuantileNilForZeroState(t *testing.T) {
	var q *Quantile
	got := roundTrip(t, func(w *binimg.Writer) { WriteQuantileImage(w, q) }, ReadQuantileImage)
	if got != nil {
		t.Fatalf("nil sketch restored non-nil: %+v", got)
	}
}
