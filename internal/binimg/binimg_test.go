package binimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRoundTrip writes one value of every kind, with columns long enough
// to span several chunks and the writer's flush threshold, and reads them
// back exactly.
func TestRoundTrip(t *testing.T) {
	east := time.FixedZone("", 2*60*60)
	odd := time.FixedZone("", 7*60*60+30*60+15) // a seconds offset: AppendBinary's version 2
	times := []time.Time{{}, time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2013, 2, 3, 4, 5, 6, 7, east), time.Date(1999, 12, 31, 23, 59, 59, 999, odd)}
	f64s := make([]float64, 3*chunk+5)
	ints := make([]int, 2*chunk+1)
	for i := range f64s {
		f64s[i] = math.Sin(float64(i)) * 1e6
	}
	f64s[1] = math.NaN()
	for i := range ints {
		ints[i] = i - chunk
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Raw("MAGIC001")
	w.u64(math.MaxUint64)
	w.I64(math.MinInt64)
	w.Int(-42)
	w.F64(-0.5)
	w.Bool(true)
	w.Bool(false)
	w.Str("")
	w.Str(strings.Repeat("x", 100<<10)) // longer than the reader's buffer
	for _, tm := range times {
		w.Time(tm)
	}
	w.F64s(f64s)
	w.Ints(ints)
	w.Ints(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.Raw(8); got != "MAGIC001" {
		t.Errorf("Raw = %q", got)
	}
	if got := r.u64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != -0.5 {
		t.Errorf("F64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.Str(); got != "" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != strings.Repeat("x", 100<<10) {
		t.Errorf("long string: %d bytes", len(got))
	}
	for _, want := range times {
		got := r.Time()
		if !got.Equal(want) {
			t.Errorf("Time = %v, want %v", got, want)
		}
		_, goff := got.Zone()
		_, woff := want.Zone()
		if goff != woff {
			t.Errorf("Time %v: offset %d, want %d", want, goff, woff)
		}
	}
	gotF := r.F64s("f64s")
	if len(gotF) != len(f64s) || !math.IsNaN(gotF[1]) {
		t.Fatalf("F64s: %d values", len(gotF))
	}
	gotF[1], f64s[1] = 0, 0
	if !reflect.DeepEqual(gotF, f64s) {
		t.Error("F64s differ")
	}
	if got := r.Ints("ints"); !reflect.DeepEqual(got, ints) {
		t.Error("Ints differ")
	}
	if got := r.Ints("empty"); got != nil {
		t.Errorf("empty column read as %v, want nil", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.u64(); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("read past the end: err = %v, want unexpected EOF", r.Err())
	}
}

// TestReaderRefuses: implausible counts and lengths fail before anything
// is allocated for them, a column whose bytes run out fails, and the first
// error latches.
func TestReaderRefuses(t *testing.T) {
	u64 := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	cases := map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"count":        {u64(maxCount + 1), func(r *Reader) { r.Count("x") }},
		"column":       {u64(maxCount + 1), func(r *Reader) { r.F64s("x") }},
		"short column": {u64(maxCount, 1, 2), func(r *Reader) { r.Ints("x") }},
		"string":       {u64(maxString + 1), func(r *Reader) { r.Str() }},
		"bool":         {u64(2), func(r *Reader) { r.Bool() }},
		"empty time":   {[]byte{0}, func(r *Reader) { r.Time() }},
		"bad time":     {[]byte{3, 9, 9, 9}, func(r *Reader) { r.Time() }},
	}
	for name, c := range cases {
		var r *Reader
		allocs := testing.AllocsPerRun(1, func() {
			r = NewReader(bytes.NewReader(append(c.in, u64(7)...)))
			c.read(r)
		})
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if allocs > 64 {
			t.Errorf("%s: %v allocations before refusing", name, allocs)
		}
		if v := r.u64(); v != 0 {
			t.Errorf("%s: read %d after an error", name, v)
		}
	}
}

// TestTimeNegativeSecondsOffset: a zone offset with a negative seconds
// remainder does not survive time.Time's binary form, so the write fails
// rather than producing an image that cannot be read.
func TestTimeNegativeSecondsOffset(t *testing.T) {
	w := NewWriter(io.Discard)
	w.Time(time.Date(1890, 1, 1, 0, 0, 0, 0, time.FixedZone("LMT", -(4*60*60+56*60+2))))
	if w.Flush() == nil {
		t.Error("a time that cannot round-trip was written")
	}
}

// TestTimeCanonical: a time decodes only from the encoding Writer.Time
// gives it, so an image that decodes re-encodes to its own bytes.
func TestTimeCanonical(t *testing.T) {
	at := time.Date(2013, 2, 3, 4, 5, 6, 0, time.FixedZone("", 3600))
	b, err := at.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The same instant and offset in AppendBinary's version 2 layout,
	// which carries a zero seconds offset.
	v2 := append([]byte{2}, b[1:]...)
	v2 = append(v2, 0)
	var probe time.Time
	if err := probe.UnmarshalBinary(v2); err != nil || !probe.Equal(at) {
		t.Fatalf("the version 2 layout does not decode: %v", err)
	}
	r := NewReader(bytes.NewReader(append([]byte{byte(len(v2))}, v2...)))
	r.Time()
	if r.Err() == nil {
		t.Error("a non-canonical time decoded")
	}
}

// TestSortedKeysAscending: SortedKeys orders keys for the writer, and
// Ascending refuses a reader's key that does not follow the last.
func TestSortedKeysAscending(t *testing.T) {
	keys := SortedKeys(map[string]int{"b": 1, "c": 2, "a": 3}, nil)
	if !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
		t.Fatalf("SortedKeys = %v", keys)
	}
	r := NewReader(bytes.NewReader(nil))
	next := Ascending[string](r, "keys")
	for _, k := range keys {
		next(k)
	}
	if r.Err() != nil {
		t.Fatalf("ascending keys refused: %v", r.Err())
	}
	next("c")
	if r.Err() == nil {
		t.Error("a repeated key was accepted")
	}
}
