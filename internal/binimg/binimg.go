// Package binimg is the binary codec of failscope's checkpoint images: the
// engine image (FSENG003) and the detector image inside it. Every integer
// and float is 8 bytes little-endian, strings and columns are prefixed
// with their length, and a time is one length byte followed by
// time.Time's binary form (zone offset included).
//
// A Writer appends into one buffer and hands it to the underlying writer
// in 64 KiB pieces, so a column of a million floats costs a million
// appends, not a million Write calls. A Reader decodes straight out of a
// bufio.Reader's buffer. Both latch the first error: once a call fails,
// every later call is a no-op returning zero values, and Err reports it.
//
// A Reader never trusts a length: counts and string lengths are checked
// against a bound before anything is allocated, and columns are read in
// bounded chunks, so a corrupt prefix fails at the end of the input rather
// than driving a giant allocation.
package binimg

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

const (
	// flushAt is the buffered size at which a Writer writes out.
	flushAt = 64 << 10
	// maxCount bounds a decoded count or column length.
	maxCount = 1 << 26
	// maxString bounds a decoded string length.
	maxString = 1 << 20
	// chunk is how many column values a Reader allocates ahead of the
	// bytes that back them.
	chunk = 1 << 13
)

// Writer appends the codec's values to a buffer flushed to an io.Writer.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer that writes to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, flushAt+64)}
}

// Flush writes out everything buffered and returns the first error met.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

func (w *Writer) spill() {
	if len(w.buf) >= flushAt {
		w.Flush()
	}
}

// Raw appends b as is: magics and fixed tags.
func (w *Writer) Raw(b string) {
	w.buf = append(w.buf, b...)
	w.spill()
}

// u64 appends v.
func (w *Writer) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	w.spill()
}

// I64 appends v.
func (w *Writer) I64(v int64) { w.u64(uint64(v)) }

// Int appends v as an I64.
func (w *Writer) Int(v int) { w.u64(uint64(int64(v))) }

// F64 appends v's IEEE 754 bits.
func (w *Writer) F64(v float64) { w.u64(math.Float64bits(v)) }

// Bool appends v as an 8-byte 0 or 1.
func (w *Writer) Bool(v bool) {
	var u uint64
	if v {
		u = 1
	}
	w.u64(u)
}

// Str appends len(s) and s.
func (w *Writer) Str(s string) {
	w.u64(uint64(len(s)))
	w.Raw(s)
}

// Time appends t as a length byte and t.AppendBinary's bytes, which carry
// the instant and the zone offset. A zone offset a whole number of minutes
// off plus a negative remainder of seconds does not survive
// UnmarshalBinary, so such a time fails the write instead of leaving an
// image that cannot be read back.
func (w *Writer) Time(t time.Time) {
	if _, off := t.Zone(); off%60 < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("binimg: time %v: zone offset %ds does not round-trip", t, off)
		}
		return
	}
	at := len(w.buf)
	buf, err := t.AppendBinary(append(w.buf, 0))
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("binimg: %w", err)
		}
		return
	}
	buf[at] = byte(len(buf) - at - 1)
	w.buf = buf
	w.spill()
}

// grow extends the buffer by n bytes and returns them to fill in place.
func (w *Writer) grow(n int) []byte {
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// Ints appends len(vals) and the column, a chunk at a time.
func (w *Writer) Ints(vals []int) {
	w.u64(uint64(len(vals)))
	for len(vals) > 0 {
		n := min(len(vals), chunk)
		dst := w.grow(8 * n)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
		vals = vals[n:]
		w.spill()
	}
}

// F64s appends len(vals) and the column.
func (w *Writer) F64s(vals []float64) {
	w.u64(uint64(len(vals)))
	for len(vals) > 0 {
		n := min(len(vals), chunk)
		dst := w.grow(8 * n)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		vals = vals[n:]
		w.spill()
	}
}

// Reader decodes the codec's values from a bufio.Reader.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader returns a Reader over r, which it buffers unless r is a
// *bufio.Reader already. Readers over one *bufio.Reader share its
// position, so images embedded in one stream decode in sequence.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, flushAt)
	}
	return &Reader{r: br}
}

// Err returns the first error a read met.
func (r *Reader) Err() error { return r.err }

// Failf records an error as the Reader's unless one is already latched;
// decoders use it to refuse values that read cleanly but make no sense.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// next returns the next n bytes. When n fits the buffer they are not
// copied and stay valid only until the next read.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	var b []byte
	var err error
	if n <= r.r.Size() {
		if b, err = r.r.Peek(n); err == nil {
			r.r.Discard(n)
		}
	} else {
		b = make([]byte, n)
		_, err = io.ReadFull(r.r, b)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return nil
	}
	return b
}

// Raw reads n bytes (n ≤ maxString) as a string: magics and fixed tags.
func (r *Reader) Raw(n int) string { return string(r.next(n)) }

// u64 reads one value.
func (r *Reader) u64() uint64 {
	b := r.next(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads one value.
func (r *Reader) I64() int64 { return int64(r.u64()) }

// Int reads an I64 as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads one value.
func (r *Reader) F64() float64 { return math.Float64frombits(r.u64()) }

// Bool reads an 8-byte value that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch v := r.u64(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("binimg: bool value %d", v)
		return false
	}
}

// Count reads a length prefix and refuses one past maxCount; what names
// it in the error.
func (r *Reader) Count(what string) int {
	n := r.u64()
	if n > maxCount {
		r.Failf("binimg: %s count %d implausible", what, n)
		return 0
	}
	return int(n)
}

// Hint caps a decoded count for use as an allocation size hint, so
// containers grow with the bytes actually read.
func Hint(n int) int { return min(n, chunk) }

// Str reads a length-prefixed string of at most maxString bytes.
func (r *Reader) Str() string {
	n := r.u64()
	if n > maxString {
		r.Failf("binimg: string length %d implausible", n)
		return ""
	}
	return string(r.next(int(n)))
}

// Time reads a value Writer.Time wrote and refuses any other encoding of
// the same time.
func (r *Reader) Time() time.Time {
	b := r.next(1)
	if b == nil {
		return time.Time{}
	}
	n := int(b[0])
	if n == 0 {
		r.Failf("binimg: empty time")
		return time.Time{}
	}
	var t time.Time
	if b = r.next(n); b != nil {
		if err := t.UnmarshalBinary(b); err != nil {
			r.Failf("binimg: %w", err)
			return time.Time{}
		}
		// One time has one encoding; refusing the others keeps every
		// image that decodes re-encoding to its own bytes.
		var scratch [16]byte
		if re, _ := t.AppendBinary(scratch[:0]); string(re) != string(b) {
			r.Failf("binimg: non-canonical time")
			return time.Time{}
		}
	}
	return t
}

// readColumn reads a length-prefixed column of 8-byte values into a slice
// grown chunk by chunk, calling put on each chunk's bytes. A zero-length
// column reads as nil.
func readColumn[T any](r *Reader, what string, put func(out []T, b []byte) []T) []T {
	n := r.Count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, 0, Hint(n))
	per := r.r.Size() / 8
	for len(out) < n {
		b := r.next(8 * min(n-len(out), per))
		if b == nil {
			return nil
		}
		out = put(out, b)
	}
	return out
}

func putInts(out []int, b []byte) []int {
	for i := 0; i < len(b); i += 8 {
		out = append(out, int(binary.LittleEndian.Uint64(b[i:])))
	}
	return out
}

func putF64s(out []float64, b []byte) []float64 {
	for i := 0; i < len(b); i += 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
	}
	return out
}

// F64s reads a column F64s wrote.
func (r *Reader) F64s(what string) []float64 { return readColumn(r, what, putF64s) }

// Ints reads a column Ints wrote.
func (r *Reader) Ints(what string) []int { return readColumn(r, what, putInts) }

// SortedKeys returns m's keys in ascending order, reusing into's storage:
// images write every map in key order, so one state has one image.
func SortedKeys[K cmp.Ordered, V any](m map[K]V, into []K) []K {
	keys := into[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Ascending returns a check for the keys of a map read back in the order
// SortedKeys wrote them: it passes each key through and fails r on a key
// that does not sort after the one before it.
func Ascending[K cmp.Ordered](r *Reader, what string) func(K) K {
	var last K
	first := true
	return func(k K) K {
		if !first && k <= last {
			r.Failf("binimg: %s keys out of order", what)
		}
		first, last = false, k
		return k
	}
}
