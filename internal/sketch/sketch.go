// Package sketch provides the streaming statistics primitives behind the
// incremental analysis engine and the observability histograms: a Welford
// moment accumulator (count, mean, variance, extrema in O(1) memory) and a
// mergeable quantile sketch built from fixed-size compacting buffers — a
// deterministic KLL-style summary that answers rank queries over an
// unbounded stream with bounded memory and no random draws, so observed
// pipeline runs stay byte-identical. A quantile read sorts the sketch's
// items once per call and answers every rank it asks from that one sort.
package sketch

import (
	"math"
	"slices"
	"sort"
)

// Moments is a streaming moment accumulator: count, mean, variance and
// extrema maintained incrementally via Welford's recurrence. The zero value
// is an empty accumulator ready for use. Mergeable with the parallel
// combination rule of Chan et al., so per-worker accumulators can be
// reduced to one.
type Moments struct {
	n          int64
	mean, m2   float64
	minV, maxV float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(v float64) {
	m.n++
	if m.n == 1 {
		m.mean, m.m2 = v, 0
		m.minV, m.maxV = v, v
		return
	}
	d := v - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (v - m.mean)
	if v < m.minV {
		m.minV = v
	}
	if v > m.maxV {
		m.maxV = v
	}
}

// Merge folds another accumulator into this one.
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
	if o.minV < m.minV {
		m.minV = o.minV
	}
	if o.maxV > m.maxV {
		m.maxV = o.maxV
	}
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean (NaN when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the unbiased sample variance (NaN for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (NaN when empty).
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.minV
}

// Max returns the largest observation (NaN when empty).
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.maxV
}

// DefaultK is the per-level buffer capacity used when NewQuantile is given
// a non-positive k: 256 doubles keep the p50/p95/p99 estimates within a
// fraction of a percentile of truth on the stream sizes the pipeline sees,
// at 2 KiB per populated level.
const DefaultK = 256

// Quantile is a mergeable quantile sketch: a hierarchy of fixed-size
// buffers where level i holds items each standing for 2^i original
// observations. When a level fills it is sorted and every other item is
// promoted to the next level (a "compaction"), halving the footprint at
// the cost of bounded rank error. The promotion offset alternates
// deterministically between compactions instead of being drawn at random,
// trading the textbook KLL's probabilistic guarantee for reproducibility:
// the same stream always yields the same sketch, which the observability
// layer's byte-identical-output rule requires.
//
// Memory is O(k log(n/k)); a read sorts the m buffered items once, so
// Query costs O(m log m) and Quantiles the same for all its ranks. Reads
// do not write the sketch. The zero value is not usable — call
// NewQuantile.
type Quantile struct {
	k           int
	levels      [][]float64
	n           int64
	minV, maxV  float64
	compactions int
}

// weighted is one buffered item and the number of observations it stands
// for (2^level).
type weighted struct {
	v float64
	w int64
}

// NewQuantile returns an empty sketch with per-level capacity k (k <= 0
// takes DefaultK).
func NewQuantile(k int) *Quantile {
	if k <= 0 {
		k = DefaultK
	}
	return &Quantile{k: k}
}

// Add folds one observation into the sketch.
func (q *Quantile) Add(v float64) {
	if q.n == 0 {
		q.minV, q.maxV = v, v
	} else {
		if v < q.minV {
			q.minV = v
		}
		if v > q.maxV {
			q.maxV = v
		}
	}
	q.n++
	if len(q.levels) == 0 {
		q.levels = append(q.levels, make([]float64, 0, q.k))
	}
	q.levels[0] = append(q.levels[0], v)
	q.compactFrom(0)
}

// compactFrom cascades compactions upward from the given level until every
// level is under capacity.
func (q *Quantile) compactFrom(level int) {
	for ; level < len(q.levels) && len(q.levels[level]) >= q.k; level++ {
		buf := q.levels[level]
		sort.Float64s(buf)
		if level+1 == len(q.levels) {
			q.levels = append(q.levels, make([]float64, 0, q.k))
		}
		// Promote every other item; the starting offset alternates so
		// neither the even nor the odd ranks are systematically favored.
		off := q.compactions & 1
		q.compactions++
		for i := off; i < len(buf); i += 2 {
			q.levels[level+1] = append(q.levels[level+1], buf[i])
		}
		q.levels[level] = buf[:0]
	}
}

// Merge folds another sketch into this one. The other sketch is not
// modified. Sketches with different k merge level-wise; the receiver keeps
// its own capacity.
func (q *Quantile) Merge(o *Quantile) {
	if o == nil || o.n == 0 {
		return
	}
	if q.n == 0 {
		q.minV, q.maxV = o.minV, o.maxV
	} else {
		if o.minV < q.minV {
			q.minV = o.minV
		}
		if o.maxV > q.maxV {
			q.maxV = o.maxV
		}
	}
	q.n += o.n
	for level, buf := range o.levels {
		for len(q.levels) <= level {
			q.levels = append(q.levels, make([]float64, 0, q.k))
		}
		q.levels[level] = append(q.levels[level], buf...)
	}
	for level := range q.levels {
		q.compactFrom(level)
	}
}

// N returns the number of observations folded in.
func (q *Quantile) N() int64 {
	if q == nil {
		return 0
	}
	return q.n
}

// Min returns the exact smallest observation (NaN when empty).
func (q *Quantile) Min() float64 {
	if q == nil || q.n == 0 {
		return math.NaN()
	}
	return q.minV
}

// Max returns the exact largest observation (NaN when empty).
func (q *Quantile) Max() float64 {
	if q == nil || q.n == 0 {
		return math.NaN()
	}
	return q.maxV
}

// Query returns the estimated p-quantile, 0 <= p <= 1. The extremes are
// exact (tracked separately); interior quantiles carry the sketch's rank
// error. NaN when the sketch is empty or p is out of range. A caller that
// needs several ranks of one sketch asks Quantiles, which sorts once.
func (q *Quantile) Query(p float64) float64 {
	var out [1]float64
	q.Quantiles([]float64{p}, out[:])
	return out[0]
}

// Quantiles writes the ps[i]-quantile into out[i], each answer exactly
// what Query(ps[i]) returns, sorting the buffered items at most once for
// all of them. out must be at least as long as ps.
func (q *Quantile) Quantiles(ps, out []float64) {
	var items []weighted
	var total int64
	sorted := false
	for i, p := range ps {
		switch {
		case q == nil || q.n == 0 || p < 0 || p > 1:
			out[i] = math.NaN()
		case p == 0:
			out[i] = q.minV
		case p == 1:
			out[i] = q.maxV
		default:
			if !sorted {
				items, total = q.sortedItems()
				sorted = true
			}
			out[i] = rankValue(items, total, p, q.minV)
		}
	}
}

// sortedItems gathers the buffered items level by level with their
// weights and sorts them by value. The sort is the pdqsort sort.Slice
// runs, with a comparator that reports "less" exactly when a.v < b.v, so
// equal values of different weight land in the order sort.Slice over the
// same gather leaves them.
func (q *Quantile) sortedItems() ([]weighted, int64) {
	m := 0
	for _, buf := range q.levels {
		m += len(buf)
	}
	items := make([]weighted, 0, m)
	var total int64
	for level, buf := range q.levels {
		w := int64(1) << uint(level)
		for _, v := range buf {
			items = append(items, weighted{v, w})
		}
		total += w * int64(len(buf))
	}
	slices.SortFunc(items, func(a, b weighted) int {
		if a.v < b.v {
			return -1
		}
		if a.v > b.v {
			return 1
		}
		return 0
	})
	return items, total
}

// rankValue is the interior p-quantile of items sorted by value whose
// weights sum to total; minV answers when no item is buffered.
func rankValue(items []weighted, total int64, p, minV float64) float64 {
	if total == 0 {
		return minV
	}
	// Interpolate linearly between the weighted items' mean-rank positions
	// (an item of weight w spans w ranks; its position is their average).
	// For an uncompacted sketch every weight is 1 and this reduces to the
	// closest-ranks interpolation stats.Percentile uses, so small samples
	// agree with the batch summaries rather than snapping to sample values.
	r := p * float64(total-1)
	var cum int64
	prevPos := math.Inf(-1)
	prevVal := 0.0
	for _, it := range items {
		pos := float64(cum) + float64(it.w-1)/2
		if pos >= r {
			if math.IsInf(prevPos, -1) || pos == prevPos {
				return it.v
			}
			frac := (r - prevPos) / (pos - prevPos)
			return prevVal + frac*(it.v-prevVal)
		}
		prevPos, prevVal = pos, it.v
		cum += it.w
	}
	return items[len(items)-1].v
}
