package monitordb

// Binary columnar segment codec — the durable checkpoint image of the
// store. Unlike the JSONL codec (codec.go), which re-ingests samples
// through the normal write path and therefore re-runs grid detection on
// whatever order it reads, the segment format serializes the columnar
// layout itself: grid base/stride, value column, validity bitmap, row
// section and the detection-backoff counter, per series. A store read back
// from a segment is field-for-field identical to the one that wrote it, so
// every future write and window advance behaves exactly as it would have
// without the round trip — the property the crash-recovery equivalence
// tests pin.
//
// Layout (binimg values: integers little-endian, strings length-prefixed):
//
//	magic "FSSEG001"
//	epoch, windowStart, windowEnd (unix nanos), retention (nanos)
//	series count, then per series (sorted by machine, then metric):
//	  id, metric, base, stride, nGrid, nextDetect
//	  vals  (count + float64 column)
//	  valid (count + uint64 bitmap words)
//	  rowT/rowV (count + parallel columns)
//	power count, then per machine (sorted): id, events (time, on)
//	placement count, then per VM (sorted): id, records (month, host)
//	firstSeen count, then per machine (sorted): id, time
//
// hostLoad is not stored: it is an index over placement and is rebuilt on
// read. (A live store can briefly hold zero-valued hostLoad entries where
// a placement was overwritten; reconstruction omits them. Absent and zero
// entries are indistinguishable through every query and through Advance's
// decrement-then-delete-at-zero path, so the difference is unobservable.)

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"failscope/internal/binimg"
	"failscope/internal/model"
)

const segmentMagic = "FSSEG001"

// zeroTimeNanos marks a zero time.Time in the nanos encoding; a real
// instant can never produce it (it is outside time.Time's nano range).
const zeroTimeNanos = math.MinInt64

func putTimeNanos(w *binimg.Writer, t time.Time) {
	if t.IsZero() {
		w.I64(zeroTimeNanos)
		return
	}
	w.I64(t.UnixNano())
}

func readTimeNanos(r *binimg.Reader) time.Time {
	n := r.I64()
	if n == zeroTimeNanos {
		return time.Time{}
	}
	return sampleTime(n)
}

func compareSeriesKeys(a, b seriesKey) int {
	if c := strings.Compare(string(a.id), string(b.id)); c != 0 {
		return c
	}
	return cmp.Compare(a.metric, b.metric)
}

// WriteSegment appends the store's complete state to w in the binary
// columnar segment format; w latches any write error, so a caller embeds
// the segment in a larger image and checks once. Iteration orders are
// sorted, so the same store always produces the same bytes.
func (db *DB) WriteSegment(w *binimg.Writer) {
	db.mu.RLock()
	defer db.mu.RUnlock()

	w.Raw(segmentMagic)
	putTimeNanos(w, db.epoch)
	putTimeNanos(w, db.windowStart)
	putTimeNanos(w, db.windowEnd)
	w.I64(int64(db.retention))

	seen := binimg.SortedKeys(db.firstSeen, nil)
	series := db.seriesInOrder(seen)
	w.Int(len(series))
	for _, e := range series {
		w.Str(string(e.key.id))
		w.I64(int64(e.key.metric))
		s := e.s
		w.I64(s.base)
		w.I64(s.stride)
		w.Int(s.nGrid)
		w.Int(s.nextDetect)
		w.F64s(s.vals)
		w.U64s(s.valid)
		w.I64s(s.rowT)
		w.F64s(s.rowV)
	}

	ids := binimg.SortedKeys(db.power, make([]model.MachineID, 0, len(seen)))
	w.Int(len(ids))
	for _, id := range ids {
		w.Str(string(id))
		events := db.power[id]
		w.Int(len(events))
		for _, ev := range events {
			putTimeNanos(w, ev.Time)
			w.Bool(ev.On)
		}
	}

	ids = binimg.SortedKeys(db.placement, ids)
	w.Int(len(ids))
	for _, id := range ids {
		w.Str(string(id))
		recs := db.placement[id]
		w.Int(len(recs))
		for _, rec := range recs {
			putTimeNanos(w, rec.month)
			w.Str(string(rec.host))
		}
	}

	w.Int(len(seen))
	for _, id := range seen {
		w.Str(string(id))
		putTimeNanos(w, db.firstSeen[id])
	}
}

// segSeries is one series in segment order.
type segSeries struct {
	key seriesKey
	s   *colSeries
}

// seriesInOrder lists the store's series sorted by machine, then metric.
// A series' machine is always in firstSeen, whose sorted IDs the segment
// needs anyway, so walking them across the metrics yields the order
// without sorting the four-times-longer series keys. A store where that
// walk misses a series (one with a metric outside Metrics) sorts instead.
func (db *DB) seriesInOrder(seen []model.MachineID) []segSeries {
	out := make([]segSeries, 0, len(db.series))
	for _, id := range seen {
		for _, m := range [...]Metric{MetricCPUUtil, MetricMemUtil, MetricDiskUtil, MetricNetKbps} {
			if s := db.series[seriesKey{id, m}]; s != nil {
				out = append(out, segSeries{seriesKey{id, m}, s})
			}
		}
	}
	if len(out) == len(db.series) {
		return out
	}
	out = out[:0]
	for k, s := range db.series {
		out = append(out, segSeries{k, s})
	}
	slices.SortFunc(out, func(a, b segSeries) int { return compareSeriesKeys(a.key, b.key) })
	return out
}

// ReadSegment reconstructs a store from a segment WriteSegment wrote. The
// returned DB carries no registry or logger; callers re-instrument it. The
// reader is consumed exactly through the segment's final byte, so segments
// can be embedded in larger streams. Keys must arrive in the order
// WriteSegment writes them, so a segment that reads re-writes to its own
// bytes.
func ReadSegment(r *binimg.Reader) (*DB, error) {
	magic := r.Raw(len(segmentMagic))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("monitordb: read segment magic: %w", err)
	}
	if magic != segmentMagic {
		return nil, fmt.Errorf("monitordb: bad segment magic %q", magic)
	}

	epoch := readTimeNanos(r)
	windowStart := readTimeNanos(r)
	windowEnd := readTimeNanos(r)
	retention := time.Duration(r.I64())
	db := New(epoch, retention)
	db.windowStart, db.windowEnd = windowStart, windowEnd

	nSeries := r.Count("series")
	db.series = make(map[seriesKey]*colSeries, binimg.Hint(nSeries))
	var prev seriesKey
	var slab []colSeries // series structs, allocated a chunk at a time
	for i := 0; i < nSeries && r.Err() == nil; i++ {
		// A machine's series are adjacent, so they share one ID string.
		k := seriesKey{model.MachineID(r.StrLike(string(prev.id))), Metric(r.I64())}
		if len(slab) == 0 {
			slab = make([]colSeries, binimg.Hint(nSeries-i))
		}
		s := &slab[0]
		slab = slab[1:]
		*s = colSeries{
			base:       r.I64(),
			stride:     r.I64(),
			nGrid:      r.Int(),
			nextDetect: r.Int(),
		}
		s.vals = r.F64s("vals")
		s.valid = r.U64s("valid")
		s.rowT = r.I64s("rowT")
		s.rowV = r.F64s("rowV")
		if r.Err() != nil {
			break
		}
		if i > 0 && compareSeriesKeys(prev, k) >= 0 {
			return nil, fmt.Errorf("monitordb: segment series %s/%s out of order", k.id, k.metric)
		}
		if len(s.rowT) != len(s.rowV) {
			return nil, fmt.Errorf("monitordb: segment series %s/%s: row columns misaligned (%d vs %d)",
				k.id, k.metric, len(s.rowT), len(s.rowV))
		}
		if want := (len(s.vals) + 63) / 64; len(s.valid) != want {
			return nil, fmt.Errorf("monitordb: segment series %s/%s: bitmap has %d words, want %d",
				k.id, k.metric, len(s.valid), want)
		}
		db.series[k] = s
		prev = k
	}

	next := binimg.Ascending[model.MachineID](r, "power")
	n := r.Count("power")
	db.power = make(map[model.MachineID][]PowerEvent, binimg.Hint(n))
	for ; n > 0 && r.Err() == nil; n-- {
		id := next(model.MachineID(r.Str()))
		m := r.Count("power events")
		events := make([]PowerEvent, 0, binimg.Hint(m))
		for ; m > 0 && r.Err() == nil; m-- {
			t := readTimeNanos(r)
			events = append(events, PowerEvent{Time: t, On: r.Bool()})
		}
		db.power[id] = events
	}
	next = binimg.Ascending[model.MachineID](r, "placement")
	n = r.Count("placement")
	db.placement = make(map[model.MachineID][]placementRecord, binimg.Hint(n))
	for ; n > 0 && r.Err() == nil; n-- {
		id := next(model.MachineID(r.Str()))
		m := r.Count("placement records")
		recs := make([]placementRecord, 0, binimg.Hint(m))
		for ; m > 0 && r.Err() == nil; m-- {
			month := readTimeNanos(r)
			host := model.MachineID(r.Str())
			recs = append(recs, placementRecord{month: month, host: host})
			db.hostLoad[hostMonthKey{host, month}]++
		}
		db.placement[id] = recs
	}
	next = binimg.Ascending[model.MachineID](r, "firstSeen")
	n = r.Count("firstSeen")
	db.firstSeen = make(map[model.MachineID]time.Time, binimg.Hint(n))
	for ; n > 0 && r.Err() == nil; n-- {
		id := next(model.MachineID(r.Str()))
		db.firstSeen[id] = readTimeNanos(r)
	}

	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("monitordb: read segment: %w", err)
	}
	return db, nil
}
