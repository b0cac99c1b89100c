package sketch

// Exact state capture for the durable checkpoint path. A recovered sketch
// must not merely report the same quantiles — it must behave identically
// on every future Add, or a crash/recover cycle would diverge from an
// uninterrupted run and break the engine's crash-recovery equivalence
// invariant. That means every field matters: the compaction counter's
// parity decides which ranks the next compaction promotes, and the level
// buffers must come back with their exact contents (including empty,
// already-compacted levels).
//
// Image layouts (binimg values):
//
//	Moments:  n, mean, m2, min, max
//	Quantile: present (bool); if present: k, n, min, max, compactions,
//	          level count, then each level as a float64 column

import "failscope/internal/binimg"

// maxImageK bounds a decoded sketch's per-level capacity; Add allocates
// levels of that capacity, so a corrupt k must not pass.
const maxImageK = 1 << 16

// WriteImage appends the accumulator's exact state to w.
func (m *Moments) WriteImage(w *binimg.Writer) {
	w.I64(m.n)
	w.F64(m.mean)
	w.F64(m.m2)
	w.F64(m.minV)
	w.F64(m.maxV)
}

// ReadImage overwrites the accumulator with an image WriteImage wrote.
func (m *Moments) ReadImage(r *binimg.Reader) {
	m.n = r.I64()
	m.mean, m.m2 = r.F64(), r.F64()
	m.minV, m.maxV = r.F64(), r.F64()
}

// WriteQuantileImage appends q's exact state to w. A nil sketch (an
// accumulator that never saw a sample) is written as absent.
func WriteQuantileImage(w *binimg.Writer, q *Quantile) {
	w.Bool(q != nil)
	if q == nil {
		return
	}
	w.Int(q.k)
	w.I64(q.n)
	w.F64(q.minV)
	w.F64(q.maxV)
	w.Int(q.compactions)
	w.Int(len(q.levels))
	for _, level := range q.levels {
		w.F64s(level)
	}
}

// ReadQuantileImage reads a sketch WriteQuantileImage wrote; nil when it
// was written absent or on a read error.
func ReadQuantileImage(r *binimg.Reader) *Quantile {
	if !r.Bool() {
		return nil
	}
	q := &Quantile{k: r.Int(), n: r.I64(), minV: r.F64(), maxV: r.F64(), compactions: r.Int()}
	if q.k < 1 || q.k > maxImageK {
		r.Failf("sketch: quantile image k %d out of range", q.k)
	}
	n := r.Count("quantile levels")
	if n > 0 {
		q.levels = make([][]float64, 0, binimg.Hint(n))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		level := r.F64s("quantile level")
		if level == nil {
			level = []float64{} // a compacted level is empty, not absent
		}
		q.levels = append(q.levels, level)
	}
	if r.Err() != nil {
		return nil
	}
	return q
}
