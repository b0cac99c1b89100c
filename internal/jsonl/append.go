package jsonl

import (
	"encoding/json"
	"math"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// The append side of the package: the scalar writers failscope's three
// JSON Lines encoders (wire events, ticket dump, monitoring dump) build
// their typed appenders from. Each writes exactly the bytes encoding/json
// writes for the same Go value with HTML escaping on (json.Marshal and a
// default json.Encoder), so output appended here and output marshalled by
// reflection are interchangeable byte for byte.
//
// The contract mirrors the scanner's. A writer that would have to guess —
// a float json refuses (NaN, ±Inf), a time json refuses (year outside
// [0, 9999], zone hour outside [0, 23]) — reports false instead, and the
// caller hands the whole record to json.Marshal, which produces either the
// same bytes or the exact error text. AppendOr applies that rule for a
// typed appender.

// AppendOr appends v as fast writes it when fast can certify every value,
// and otherwise as json.Marshal writes it, counting the record in
// fallbacks. On error dst is returned as it was, with json's error.
func AppendOr[T any](dst []byte, v *T, fast func([]byte, *T) ([]byte, bool), fallbacks *atomic.Int64) ([]byte, error) {
	n := len(dst)
	if out, ok := fast(dst, v); ok {
		return out, nil
	}
	fallbacks.Add(1)
	b, err := json.Marshal(v)
	if err != nil {
		return dst[:n], err
	}
	return append(dst[:n], b...), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe[b] reports whether encoding/json copies the ASCII byte b into a
// string verbatim: printable, not a quote or backslash, and not one of the
// HTML-significant <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// AppendString appends s as a quoted JSON string the way encoding/json
// does: quotes, backslashes and \b \f \n \r \t get their short escapes;
// other control characters and <, > and & become \u00XX; U+2028 and
// U+2029 become \u2028 and \u2029; each byte of invalid UTF-8 becomes
// \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f the way encoding/json writes a float64: the
// shortest representation that round-trips, in 'f' form unless the
// magnitude is below 1e-6 or at least 1e21, where it switches to 'e' form
// with a two-digit negative exponent shortened (1e-07 → 1e-7). It reports
// false for NaN and ±Inf, which encoding/json refuses.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendInt appends v in decimal.
func AppendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// AppendBool appends true or false.
func AppendBool(dst []byte, v bool) []byte { return strconv.AppendBool(dst, v) }

// AppendTime appends t as time.Time.MarshalJSON writes it: quoted
// RFC 3339 with nanoseconds, trailing fractional zeros trimmed, through
// time.AppendFormat and the range checks MarshalJSON applies. It reports
// false when MarshalJSON would fail: a year outside [0, 9999] or a zone
// offset of 24 hours or more.
func AppendTime(dst []byte, t time.Time) ([]byte, bool) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	// MarshalJSON's own validity checks, on the formatted bytes.
	if dst[n0+len("9999")] != '-' {
		return dst[:n0-1], false
	}
	if n := len(dst); dst[n-1] != 'Z' {
		c := dst[n-len("Z07:00")]
		if ('0' <= c && c <= '9') || 10*(dst[n-5]-'0')+(dst[n-4]-'0') >= 24 {
			return dst[:n0-1], false
		}
	}
	return append(dst, '"'), true
}
