package sketch

import (
	"math"
	"sort"
)

// queryReference is the one-rank Quantile.Query that sorted a 4·k-slot
// buffer with sort.Slice on every call. It is the reference
// FuzzQuantileQuery holds Query and Quantiles to, bit for bit, ties
// between items of different weight included.
func queryReference(q *Quantile, p float64) float64 {
	if q == nil || q.n == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 0 {
		return q.minV
	}
	if p == 1 {
		return q.maxV
	}
	type item struct {
		v float64
		w int64
	}
	items := make([]item, 0, 4*q.k)
	var total int64
	for level, buf := range q.levels {
		w := int64(1) << uint(level)
		for _, v := range buf {
			items = append(items, item{v, w})
			total += w
		}
	}
	if total == 0 {
		return q.minV
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
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
