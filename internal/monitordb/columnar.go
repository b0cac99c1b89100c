package monitordb

// Columnar series storage. A monitoring series is overwhelmingly a fixed-
// cadence sample grid — the paper's databases record every machine at 15-
// minute (and coarser) strides for a year — so storing a 24-byte time.Time
// next to every 8-byte value triples the footprint for information that is
// pure arithmetic. colSeries instead keeps an implicit time grid: a base
// instant, a stride, a dense []float64 value column and a validity bitmap
// for gaps. Slot i holds the sample at base + i*stride; timestamps are
// computed, never stored, and window/rollup indexing is O(1) arithmetic
// instead of binary search.
//
// Samples that do not fit the grid — irregular cadences, duplicates of an
// occupied slot, records written before the cadence is known — live in a
// small sorted row section (parallel time/value columns, 16 bytes each).
// The representation is transparent: every read path merges grid and rows
// into the same time-sorted sample sequence the previous slice-of-structs
// layout produced, so rollups and joins are unchanged bit for bit while
// resident bytes drop ~4x on grid-shaped data.

import "sort"

const (
	// detectAfterRows is how many rows a series accumulates before the
	// store first tries to infer its grid cadence.
	detectAfterRows = 16
	// gridGapSlots bounds how many empty slots a single append may extend
	// the grid by; a sample further ahead goes to the row section instead,
	// so one far-future timestamp cannot balloon the value column.
	gridGapSlots = 256
	// colSeriesOverheadBytes approximates the fixed per-series struct cost
	// (slice headers + grid parameters) in Footprint accounting.
	colSeriesOverheadBytes = 112
)

// colSeries is one (machine, metric) series in columnar form. All methods
// assume the caller holds the DB lock.
type colSeries struct {
	base   int64     // unix nanos of grid slot 0
	stride int64     // grid step in nanos; 0 until a cadence is detected
	vals   []float64 // slot i holds the value at base + i*stride
	valid  []uint64  // validity bitmap over vals (gaps are zero bits)
	nGrid  int       // number of set bits in valid

	// Row section: off-grid samples in time order, ties in arrival order.
	rowT []int64
	rowV []float64

	// nextDetect is the row count at which cadence detection (re)runs;
	// doubled after a failed attempt so irregular series stop paying for
	// detection scans.
	nextDetect int
}

func (s *colSeries) bit(i int) bool {
	return s.valid[i>>6]&(1<<uint(i&63)) != 0
}

func (s *colSeries) setBit(i int) {
	s.valid[i>>6] |= 1 << uint(i&63)
}

func (s *colSeries) len() int { return s.nGrid + len(s.rowT) }

// extendTo grows the value column (and bitmap) to cover slot idx.
func (s *colSeries) extendTo(idx int) {
	if idx < len(s.vals) {
		return
	}
	if idx < cap(s.vals) {
		s.vals = s.vals[:idx+1]
	} else {
		grown := make([]float64, idx+1, growCap(idx+1, cap(s.vals)))
		copy(grown, s.vals)
		s.vals = grown[:idx+1]
	}
	words := (len(s.vals) + 63) / 64
	for len(s.valid) < words {
		s.valid = append(s.valid, 0)
	}
}

func growCap(need, have int) int {
	c := 2 * have
	if c < need {
		c = need
	}
	return c
}

// reserveRows grows the row-section capacity for n more samples so a bulk
// append lands in one backing array instead of doubling through several.
// Capacity-only: lengths, contents and detection timing are untouched.
func (s *colSeries) reserveRows(n int) {
	need := len(s.rowT) + n
	if cap(s.rowT) >= need {
		return
	}
	rowT := make([]int64, len(s.rowT), need)
	rowV := make([]float64, len(s.rowV), need)
	copy(rowT, s.rowT)
	copy(rowV, s.rowV)
	s.rowT, s.rowV = rowT, rowV
}

// reserveGrid grows the value-column capacity to cover the slot of maxT if
// it lies on the lattice, ahead of a batch of n samples. Capacity-only: the
// gridGapSlots admission check in add reads lengths, so pre-reserving never
// changes which samples reach the grid — it only removes the append
// doublings on the way there. The reservation is bounded by how far n
// accepted samples could legally extend the column (each moves the length
// by at most gridGapSlots+1), so one far-future timestamp that add would
// route to the rows cannot balloon the reservation either.
func (s *colSeries) reserveGrid(maxT int64, n int) {
	if s.stride <= 0 {
		return
	}
	off := maxT - s.base
	if off < 0 || off%s.stride != 0 {
		return
	}
	need64 := off/s.stride + 1
	if need64 <= int64(cap(s.vals)) || need64 > int64(len(s.vals))+int64(n)*(gridGapSlots+1) {
		return
	}
	need := int(need64)
	vals := make([]float64, len(s.vals), need)
	copy(vals, s.vals)
	s.vals = vals
	words := (need + 63) / 64
	if cap(s.valid) < words {
		valid := make([]uint64, len(s.valid), words)
		copy(valid, s.valid)
		s.valid = valid
	}
}

// insertRow places a sample into the sorted row section, after any existing
// rows with the same timestamp so arrival order is preserved for ties.
func (s *colSeries) insertRow(t int64, v float64) {
	n := len(s.rowT)
	if n == 0 || s.rowT[n-1] <= t { // common case: appends arrive in order
		s.rowT = append(s.rowT, t)
		s.rowV = append(s.rowV, v)
		return
	}
	i := sort.Search(n, func(i int) bool { return s.rowT[i] > t })
	s.rowT = append(s.rowT, 0)
	s.rowV = append(s.rowV, 0)
	copy(s.rowT[i+1:], s.rowT[i:])
	copy(s.rowV[i+1:], s.rowV[i:])
	s.rowT[i], s.rowV[i] = t, v
}

// add appends one sample, routing it to the grid when it fits the detected
// cadence and to the row section otherwise.
func (s *colSeries) add(t int64, v float64) {
	if s.stride > 0 {
		if off := t - s.base; off >= 0 && off%s.stride == 0 {
			idx64 := off / s.stride
			if idx64 < int64(len(s.vals)) {
				idx := int(idx64)
				if !s.bit(idx) {
					s.vals[idx] = v
					s.setBit(idx)
					s.nGrid++
					return
				}
				// Duplicate timestamp: the slot holder arrived first, the
				// newcomer joins the rows so both survive, in order.
			} else if idx64 <= int64(len(s.vals))+gridGapSlots {
				idx := int(idx64)
				s.extendTo(idx)
				s.vals[idx] = v
				s.setBit(idx)
				s.nGrid++
				return
			}
		}
		s.insertRow(t, v)
		return
	}
	s.insertRow(t, v)
	if s.nextDetect == 0 {
		s.nextDetect = detectAfterRows
	}
	if len(s.rowT) >= s.nextDetect {
		s.detectGrid()
	}
}

// trim releases append slack left by the doubling growth policy: bulk
// writers call it after a batch so resident capacity tracks the data
// actually present. The thresholds are deliberately small — the paper's
// series are weekly averages (~50 slots), where even a 12-slot tail of
// doubling slack or a detection buffer holding one leftover row costs a
// fifth of the series — and the copy runs once per bulk batch, not per
// sample. A word or two of slack is left alone.
func (s *colSeries) trim() {
	if cap(s.vals)-len(s.vals) >= 4 {
		vals := make([]float64, len(s.vals))
		copy(vals, s.vals)
		s.vals = vals
	}
	if cap(s.valid)-len(s.valid) >= 2 {
		valid := make([]uint64, len(s.valid))
		copy(valid, s.valid)
		s.valid = valid
	}
	if cap(s.rowT)-len(s.rowT) >= 4 {
		rowT := make([]int64, len(s.rowT))
		rowV := make([]float64, len(s.rowV))
		copy(rowT, s.rowT)
		copy(rowV, s.rowV)
		s.rowT, s.rowV = rowT, rowV
	}
}

// detectGrid infers the series cadence from the buffered rows: the modal
// positive delta between consecutive timestamps becomes the stride, the
// modal residue class modulo that stride anchors the base, and every row on
// the resulting lattice migrates into the value column. Rows that stay off
// the lattice (irregular cadences, duplicate timestamps) remain rows.
func (s *colSeries) detectGrid() {
	ts := s.rowT
	var stride int64
	bestN := 0
	// Counting runs over at most nextDetect rows, so the distinct-value
	// tallies live in small linear-scanned pair slices on fixed stack
	// buffers instead of maps — detection is on the bulk-write path and a
	// map costs several bucket allocations per series. The incremental
	// best-so-far updates are kept verbatim so tie-breaking (smallest delta
	// among equals; first residue to reach the modal count) is unchanged.
	var deltaBuf [detectAfterRows * 2]modeCount
	deltas := deltaBuf[:0]
	for i := 1; i < len(ts); i++ {
		d := ts[i] - ts[i-1]
		if d <= 0 {
			continue
		}
		n := bumpMode(&deltas, d)
		if n > bestN || (n == bestN && d < stride) {
			stride, bestN = d, n
		}
	}
	// Demand a clear majority cadence; otherwise back off exponentially so
	// genuinely irregular series stop re-scanning.
	if stride <= 0 || bestN*2 < len(ts)-1 {
		s.nextDetect = 2 * len(ts)
		return
	}
	// Modal residue class mod stride picks the lattice; the earliest row in
	// that class anchors slot 0.
	var residueBuf [detectAfterRows * 2]modeCount
	residues := residueBuf[:0]
	var base int64
	baseSet := false
	bestR, bestRN := int64(0), 0
	for _, t := range ts {
		r := ((t % stride) + stride) % stride
		n := bumpMode(&residues, r)
		if n > bestRN {
			bestR, bestRN = r, n
			baseSet = false
		}
	}
	for _, t := range ts {
		if ((t%stride)+stride)%stride == bestR {
			base, baseSet = t, true
			break
		}
	}
	if !baseSet || bestRN*2 < len(ts) {
		s.nextDetect = 2 * len(ts)
		return
	}

	maxIdx := (ts[len(ts)-1] - base) / stride
	if maxIdx < 0 {
		s.nextDetect = 2 * len(ts)
		return
	}
	s.base, s.stride = base, stride
	s.vals = make([]float64, maxIdx+1)
	s.valid = make([]uint64, (len(s.vals)+63)/64)

	keepT := s.rowT[:0]
	keepV := s.rowV[:0]
	for i, t := range s.rowT {
		if off := t - base; off >= 0 && off%stride == 0 {
			if idx := int(off / stride); !s.bit(idx) {
				s.vals[idx] = s.rowV[i]
				s.setBit(idx)
				s.nGrid++
				continue
			}
		}
		keepT = append(keepT, t)
		keepV = append(keepV, s.rowV[i])
	}
	s.rowT, s.rowV = keepT, keepV
}

// modeCount is one (value, count) tally for detectGrid's modal scans.
type modeCount struct {
	v int64
	n int
}

// bumpMode increments the tally for v, appending it on first sight, and
// returns the new count. Linear scan: the slices hold at most one entry per
// distinct delta/residue among the buffered rows, a few dozen at worst.
func bumpMode(m *[]modeCount, v int64) int {
	s := *m
	for i := range s {
		if s[i].v == v {
			s[i].n++
			return s[i].n
		}
	}
	*m = append(s, modeCount{v: v, n: 1})
	return 1
}

// gridEnd returns the number of leading grid slots whose timestamp is
// strictly before hi (unix nanos).
func (s *colSeries) gridEnd(hi int64) int {
	if s.stride <= 0 || len(s.vals) == 0 || hi <= s.base {
		return 0
	}
	end := (hi - s.base + s.stride - 1) / s.stride
	if end > int64(len(s.vals)) {
		return len(s.vals)
	}
	return int(end)
}

// gridStart returns the first grid slot whose timestamp is >= lo.
func (s *colSeries) gridStart(lo int64) int {
	if s.stride <= 0 || lo <= s.base {
		return 0
	}
	start := (lo - s.base + s.stride - 1) / s.stride
	if start > int64(len(s.vals)) {
		return len(s.vals)
	}
	return int(start)
}

// eachIn calls fn for every sample with lo <= t < hi (unix nanos) in time
// order; equal timestamps keep arrival order (grid slot holder first).
func (s *colSeries) eachIn(lo, hi int64, fn func(t int64, v float64)) {
	if hi <= lo {
		return
	}
	ri := sort.Search(len(s.rowT), func(i int) bool { return s.rowT[i] >= lo })
	for gi, gEnd := s.gridStart(lo), s.gridEnd(hi); gi < gEnd; gi++ {
		if !s.bit(gi) {
			continue
		}
		gt := s.base + int64(gi)*s.stride
		for ri < len(s.rowT) && s.rowT[ri] < gt {
			fn(s.rowT[ri], s.rowV[ri])
			ri++
		}
		fn(gt, s.vals[gi])
	}
	for ri < len(s.rowT) && s.rowT[ri] < hi {
		fn(s.rowT[ri], s.rowV[ri])
		ri++
	}
}

// each calls fn for every sample in time order (ties in arrival order).
func (s *colSeries) each(fn func(t int64, v float64)) {
	ri := 0
	for gi := 0; gi < len(s.vals); gi++ {
		if !s.bit(gi) {
			continue
		}
		gt := s.base + int64(gi)*s.stride
		for ri < len(s.rowT) && s.rowT[ri] < gt {
			fn(s.rowT[ri], s.rowV[ri])
			ri++
		}
		fn(gt, s.vals[gi])
	}
	for ; ri < len(s.rowT); ri++ {
		fn(s.rowT[ri], s.rowV[ri])
	}
}

// Footprint reports the store's resident sample memory: columnar bytes as
// allocated, split grid vs. row.
type Footprint struct {
	Series      int   // number of (machine, metric) series
	GridSamples int   // samples resident in value columns
	RowSamples  int   // samples resident in row sections
	GridBytes   int64 // value columns + validity bitmaps, as allocated
	RowBytes    int64 // row time/value columns, as allocated
	Bytes       int64 // total resident estimate incl. per-series overhead
}

// Footprint computes the current series-storage footprint.
func (db *DB) Footprint() Footprint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var fp Footprint
	for _, s := range db.series {
		fp.Series++
		fp.GridSamples += s.nGrid
		fp.RowSamples += len(s.rowT)
		fp.GridBytes += int64(cap(s.vals))*8 + int64(cap(s.valid))*8
		fp.RowBytes += int64(cap(s.rowT))*8 + int64(cap(s.rowV))*8
	}
	fp.Bytes = fp.GridBytes + fp.RowBytes + int64(fp.Series)*colSeriesOverheadBytes
	return fp
}

// RecordFootprint publishes the footprint on the attached metrics registry
// as the gauges monitordb.series_bytes, .grid_samples and .row_samples
// (no-ops without one) and returns it.
func (db *DB) RecordFootprint() Footprint {
	fp := db.Footprint()
	r := db.registry()
	r.Set("monitordb.series_bytes", float64(fp.Bytes))
	r.Set("monitordb.grid_samples", float64(fp.GridSamples))
	r.Set("monitordb.row_samples", float64(fp.RowSamples))
	return fp
}
