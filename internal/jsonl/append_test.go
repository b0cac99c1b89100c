package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// trickyStrings covers every escape rule encoding/json applies: quotes,
// backslashes, the short control escapes, other control bytes, the HTML
// characters, U+2028/U+2029, invalid and truncated UTF-8, encoded
// surrogates, and multi-byte text that must pass through unchanged.
var trickyStrings = []string{
	"", "plain", `q"b\s/`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"line\u2028para\u2029end", "café ✓ 😀", "bad \xff byte", "\xc3", "\xe2\x80", "\xed\xa0\x80",
	"\xf4\x90\x80\x80", "mixed <\xff\u2028\n>", "\ufffd",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), trickyStrings...)
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, -1.25e2, 37.25, 1e-6, 9.999999999999999e-7,
		1e-7, -1e-7, 1.5e-9, 1e20, 1e21, -1e21, 999999999999999999999.0, 1e100, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 1e-300,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range append(cases, math.NaN(), math.Inf(1), math.Inf(-1)) {
		want, err := json.Marshal(f)
		got, ok := AppendFloat([]byte("x"), f)
		if ok != (err == nil) {
			t.Errorf("AppendFloat(%v) ok=%v, json err %v", f, ok, err)
			continue
		}
		if ok && !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendFloat(%v) = %s, json %s", f, got[1:], want)
		}
	}
}

func TestAppendTimeMatchesMarshalJSON(t *testing.T) {
	utc := func(y int, mo time.Month, d, h, mi, s, ns int) time.Time {
		return time.Date(y, mo, d, h, mi, s, ns, time.UTC)
	}
	zones := []*time.Location{
		time.UTC, time.Local, time.FixedZone("", 0), time.FixedZone("CEST", 2*3600),
		time.FixedZone("", -(9*3600 + 30*60)), time.FixedZone("LMT", 17*60+30),
		time.FixedZone("", 23*3600+59*60), time.FixedZone("", 24*3600), time.FixedZone("", -25*3600),
	}
	cases := []time.Time{
		{}, utc(2012, 8, 5, 0, 0, 0, 0), utc(2012, 2, 29, 23, 59, 59, 500000000),
		utc(2012, 8, 5, 1, 2, 3, 1), utc(2012, 8, 5, 1, 2, 3, 123456789), utc(2012, 8, 5, 1, 2, 3, 120000000),
		utc(0, 1, 1, 0, 0, 0, 0), utc(0, 2, 29, 12, 0, 0, 0), utc(0, 3, 1, 0, 0, 0, 0),
		utc(9999, 12, 31, 23, 59, 59, 999999999), utc(10000, 1, 1, 0, 0, 0, 0), utc(-1, 12, 31, 23, 59, 59, 0),
		utc(1600, 2, 29, 0, 0, 0, 0), utc(1900, 3, 1, 0, 0, 0, 0), utc(2000, 2, 29, 0, 0, 0, 0),
		utc(1969, 12, 31, 23, 59, 59, 999999999), time.Unix(0, 0), time.Unix(1e9, 5),
		time.Date(2012, 8, 5, 0, 0, 0, 0, time.FixedZone("", 2*3600)).UTC(),
	}
	for _, loc := range zones {
		cases = append(cases, time.Date(2012, 8, 5, 10, 0, 0, 250, loc), time.Date(0, 1, 1, 0, 30, 0, 0, loc),
			time.Date(9999, 12, 31, 23, 30, 0, 0, loc))
	}
	// Instants spread over twice the span MarshalJSON accepts in UTC,
	// 0000-01-01T00:00:00Z to 9999-12-31T23:59:59Z, so about half refuse.
	const minUnix, maxUnix = -62167219200, 253402300799
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		sec := rng.Int63n(2*(maxUnix-minUnix)) + 2*minUnix
		at := time.Unix(sec, rng.Int63n(1e9))
		if i%2 == 0 {
			at = at.UTC()
		} else {
			at = at.In(zones[rng.Intn(len(zones))])
		}
		cases = append(cases, at)
	}
	for _, at := range cases {
		want, err := json.Marshal(at)
		got, ok := AppendTime([]byte("x"), at)
		if ok != (err == nil) {
			t.Errorf("AppendTime(%v) ok=%v, json err %v", at, ok, err)
			continue
		}
		if !ok {
			if string(got) != "x" {
				t.Errorf("AppendTime(%v) refused but left %q", at, got)
			}
			continue
		}
		if !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendTime(%v) = %s, json %s", at, got[1:], want)
		}
	}
}
