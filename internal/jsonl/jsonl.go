// Package jsonl is the zero-copy JSON scanner shared by failscope's three
// JSON Lines decoders: the wire events (internal/stream), the ticket dump
// (internal/model) and the monitoring dump (internal/monitordb). It scans
// one line's bytes in place — no intermediate maps, no reflection, no
// per-field boxing — and the typed parsers built on it (model's Machine /
// Ticket / Incident, each decoder's record) land values straight in their
// destination.
//
// The contract every caller keeps: a Parser only accepts input it can
// decode bit-for-bit the way encoding/json would. Anything it is not
// certain about — non-UTC time offsets, surrogate escapes, invalid UTF-8,
// null on a scalar, numbers out of range, keys json would match
// case-insensitively, deep nesting, malformed syntax — makes the scan
// return false, and the caller hands that line to json.Unmarshal, so
// values and error text stay exactly encoding/json's.
//
// The package also holds the encode side those three formats share: the
// append-style writers in append.go, under the same contract in reverse;
// and Decode in pipeline.go, which runs a dump decoder's per-line parse on
// several workers and folds the records back in file order.
package jsonl

import (
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// maxDepth bounds object/array nesting. Deeper input is not an error, it
// falls back: encoding/json decides it (and bounds its own recursion).
const maxDepth = 64

// Parser scans one line at a time. Reset points it at a line; the
// unescape scratch buffer survives resets, so a long-lived Parser decodes
// escaped strings without allocating.
type Parser struct {
	in      []byte
	pos     int
	depth   int
	scratch []byte
}

// Reset points the parser at line with the cursor at its start.
func (p *Parser) Reset(line []byte) {
	p.in, p.pos, p.depth = line, 0, 0
}

// bytesString views b as a string without copying. The result must not
// outlive b or be retained; it is only handed to non-retaining stdlib
// parsers (strconv) and comparisons.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (p *Parser) skipWS() {
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes c or fails.
func (p *Parser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) peek() (byte, bool) {
	if p.pos < len(p.in) {
		return p.in[p.pos], true
	}
	return 0, false
}

// Literal consumes the exact bytes of s or fails. Decoders match the fixed
// key text of a line their own encoder wrote with it.
func (p *Parser) Literal(s string) bool {
	if len(p.in)-p.pos < len(s) || bytesString(p.in[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

// Null consumes "null" if present, reporting whether it did.
func (p *Parser) Null() bool {
	if len(p.in)-p.pos >= 4 && bytesString(p.in[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

// End reports whether only whitespace remains: trailing bytes after the
// top-level value are a json error, which the fallback reports.
func (p *Parser) End() bool {
	p.skipWS()
	return p.pos == len(p.in)
}

// scanRawString consumes a quoted string, returning the bytes between the
// quotes and whether any escape sequence is present. It validates that raw
// control characters do not appear (encoding/json rejects them) but leaves
// escape decoding to the caller.
func (p *Parser) scanRawString() (raw []byte, hasEsc, ok bool) {
	if !p.eat('"') {
		return nil, false, false
	}
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch {
		case c == '"':
			raw = p.in[start:p.pos]
			p.pos++
			return raw, hasEsc, true
		case c == '\\':
			hasEsc = true
			p.pos++
			if p.pos >= len(p.in) {
				return nil, false, false
			}
			p.pos++
		case c < 0x20:
			return nil, false, false
		default:
			p.pos++
		}
	}
	return nil, false, false
}

// unescape decodes raw (a string body containing at least one escape) into
// the scratch buffer. Surrogate escapes fail — pairing rules are
// encoding/json's business.
func (p *Parser) unescape(raw []byte) ([]byte, bool) {
	out := p.scratch[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		i++
		if i >= len(raw) {
			return nil, false
		}
		switch raw[i] {
		case '"':
			out = append(out, '"')
		case '\\':
			out = append(out, '\\')
		case '/':
			out = append(out, '/')
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if len(raw)-i < 5 {
				return nil, false
			}
			r := 0
			for _, h := range raw[i+1 : i+5] {
				d := hexVal(h)
				if d < 0 {
					return nil, false
				}
				r = r<<4 | d
			}
			if utf16.IsSurrogate(rune(r)) {
				return nil, false
			}
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default:
			return nil, false
		}
		i++
	}
	p.scratch = out[:0]
	return out, true
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// validBody reports whether a string body is valid UTF-8 (encoding/json
// substitutes U+FFFD for invalid sequences — the scanner fails those lines
// instead of reimplementing the substitution).
func validBody(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return utf8.Valid(b)
		}
	}
	return true
}

// StringBytes decodes a JSON string without allocating. The result views
// the line or the scratch buffer and is valid only until the next call
// that may unescape; callers copy what they keep.
func (p *Parser) StringBytes() ([]byte, bool) {
	raw, hasEsc, ok := p.scanRawString()
	if !ok {
		return nil, false
	}
	if hasEsc {
		if raw, ok = p.unescape(raw); !ok {
			return nil, false
		}
	}
	if !validBody(raw) {
		return nil, false
	}
	return raw, true
}

// String decodes a JSON string into a freshly allocated Go string — the
// one unavoidable allocation for retained text.
func (p *Parser) String() (string, bool) {
	raw, ok := p.StringBytes()
	if !ok {
		return "", false
	}
	return string(raw), true
}

// Enum decodes a string that is usually one of known, returning the
// matching element of known without allocating; any other value is
// allocated as String would.
func (p *Parser) Enum(known []string) (string, bool) {
	raw, ok := p.StringBytes()
	if !ok {
		return "", false
	}
	for _, k := range known {
		if string(raw) == k {
			return k, true
		}
	}
	return string(raw), true
}

// key decodes an object key without allocating (escaped keys land in
// scratch). Keys are not UTF-8 checked: an invalid key matches no known
// field, here or in encoding/json.
func (p *Parser) key() ([]byte, bool) {
	raw, hasEsc, ok := p.scanRawString()
	if !ok {
		return nil, false
	}
	if hasEsc {
		return p.unescape(raw)
	}
	return raw, true
}

// scanNumber consumes a JSON number token, reporting whether it is an
// integer (no fraction or exponent).
func (p *Parser) scanNumber() (tok []byte, isInt bool, ok bool) {
	start := p.pos
	isInt = true
	if c, ok := p.peek(); ok && c == '-' {
		p.pos++
	}
	// Integer part: 0 | [1-9][0-9]*
	c, have := p.peek()
	if !have || c < '0' || c > '9' {
		return nil, false, false
	}
	if c == '0' {
		p.pos++
	} else {
		p.digits()
	}
	if p.pos < len(p.in) && p.in[p.pos] == '.' {
		isInt = false
		p.pos++
		if p.digits() == 0 {
			return nil, false, false
		}
	}
	if p.pos < len(p.in) && (p.in[p.pos] == 'e' || p.in[p.pos] == 'E') {
		isInt = false
		p.pos++
		if p.pos < len(p.in) && (p.in[p.pos] == '+' || p.in[p.pos] == '-') {
			p.pos++
		}
		if p.digits() == 0 {
			return nil, false, false
		}
	}
	return p.in[start:p.pos], isInt, true
}

// digits consumes a run of decimal digits and returns its length.
func (p *Parser) digits() int {
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	return p.pos - start
}

// Int64 parses an integer-typed field. Numbers with a fraction or exponent
// fail (encoding/json rejects them for int fields, and the fallback
// produces its exact error); null fails too, since json no-ops it rather
// than assigning zero.
func (p *Parser) Int64() (int64, bool) {
	if p.Null() {
		return 0, false
	}
	tok, isInt, ok := p.scanNumber()
	if !ok || !isInt {
		return 0, false
	}
	v, err := strconv.ParseInt(bytesString(tok), 10, 64)
	return v, err == nil
}

// Int is Int64 for an int field.
func (p *Parser) Int() (int, bool) {
	v, ok := p.Int64()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// Float parses a float64 field via strconv on a no-copy string view —
// bit-exact with encoding/json, which uses the same parser.
func (p *Parser) Float() (float64, bool) {
	if p.Null() {
		return 0, false
	}
	tok, _, ok := p.scanNumber()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(bytesString(tok), 64)
	return v, err == nil
}

// Bool parses a bool field; null fails (json no-ops it).
func (p *Parser) Bool() (bool, bool) {
	if c, have := p.peek(); have && c == 't' {
		return true, p.Literal("true")
	}
	return false, p.Literal("false")
}

// Time parses a quoted RFC3339 UTC timestamp ("...Z", optionally with a
// fractional second) the way time.Time.UnmarshalJSON does. Offsets other
// than Z fail: time.Parse resolves them against the local zone database
// and the scanner refuses to guess.
func (p *Parser) Time() (time.Time, bool) {
	raw, hasEsc, ok := p.scanRawString()
	if !ok || hasEsc {
		return time.Time{}, false
	}
	// Minimum form: 2006-01-02T15:04:05Z (20 bytes).
	if len(raw) < 20 || raw[len(raw)-1] != 'Z' {
		return time.Time{}, false
	}
	digits := func(b []byte) (int, bool) {
		v := 0
		for _, c := range b {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + int(c-'0')
		}
		return v, true
	}
	if raw[4] != '-' || raw[7] != '-' || raw[10] != 'T' || raw[13] != ':' || raw[16] != ':' {
		return time.Time{}, false
	}
	y, ok1 := digits(raw[0:4])
	mo, ok2 := digits(raw[5:7])
	d, ok3 := digits(raw[8:10])
	h, ok4 := digits(raw[11:13])
	mi, ok5 := digits(raw[14:16])
	s, ok6 := digits(raw[17:19])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	if mo < 1 || mo > 12 || d < 1 || d > daysIn(y, mo) || h > 23 || mi > 59 || s > 59 {
		return time.Time{}, false
	}
	ns := 0
	if frac := raw[19 : len(raw)-1]; len(frac) > 0 {
		if frac[0] != '.' || len(frac) < 2 || len(frac) > 10 {
			return time.Time{}, false
		}
		v, ok := digits(frac[1:])
		if !ok {
			return time.Time{}, false
		}
		for n := len(frac) - 1; n < 9; n++ {
			v *= 10
		}
		ns = v
	}
	return time.Date(y, time.Month(mo), d, h, mi, s, ns, time.UTC), true
}

func daysIn(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		return 29
	}
	return 28
}

// TimeField handles a time.Time value field: null is a no-op, exactly as
// time.Time.UnmarshalJSON treats it.
func (p *Parser) TimeField(dst *time.Time) bool {
	if p.Null() {
		return true
	}
	t, ok := p.Time()
	if ok {
		*dst = t
	}
	return ok
}

// TimeMemo remembers the last timestamp Time parsed: its quoted text and
// its value. Consecutive records of a time-ordered stream mostly repeat
// the previous timestamp, and a repeat then costs one byte comparison
// instead of a parse. The zero TimeMemo is empty.
type TimeMemo struct {
	raw []byte // the quoted text, quotes included
	t   time.Time
}

// Time is p.Time, answered from m when the cursor's bytes repeat the
// remembered text. Equal text parses to an equal value, so the answer is
// the one p.Time would give.
func (m *TimeMemo) Time(p *Parser) (time.Time, bool) {
	if len(m.raw) > 0 && p.Literal(bytesString(m.raw)) {
		return m.t, true
	}
	start := p.pos
	t, ok := p.Time()
	if ok {
		m.raw = append(m.raw[:0], p.in[start:p.pos]...)
		m.t = t
	}
	return t, ok
}

// Reset forgets the remembered timestamp, keeping the text's capacity.
func (m *TimeMemo) Reset() { m.raw, m.t = m.raw[:0], time.Time{} }

// Skip consumes any JSON value (an unknown field's payload), validating
// just enough syntax that acceptance matches encoding/json.
func (p *Parser) Skip() bool {
	p.skipWS()
	c, have := p.peek()
	if !have {
		return false
	}
	switch c {
	case '"':
		// Unescaping validates the escapes json would reject.
		_, ok := p.StringBytes()
		return ok
	case '{':
		return p.Object(func([]byte) bool { return p.Skip() })
	case '[':
		return p.Array(p.Skip)
	case 't':
		return p.Literal("true")
	case 'f':
		return p.Literal("false")
	case 'n':
		return p.Literal("null")
	default:
		_, _, ok := p.scanNumber()
		return ok
	}
}

// UnknownKey decides what to do with a key that matched no field exactly:
// skip its value if encoding/json would ignore it too, fail if json's
// case-insensitive field matching would have assigned it. known lists the
// struct's JSON keys.
func (p *Parser) UnknownKey(key []byte, known []string) bool {
	for _, k := range known {
		if strings.EqualFold(bytesString(key), k) {
			return false
		}
	}
	return p.Skip()
}

// Object drives one object: fn receives each key with the cursor on its
// value and must consume it. The key bytes are valid only during fn.
func (p *Parser) Object(fn func(key []byte) bool) bool {
	if !p.open('{') {
		return false
	}
	if p.eat('}') {
		p.depth--
		return true
	}
	for {
		p.skipWS()
		key, ok := p.key()
		if !ok {
			return false
		}
		p.skipWS()
		if !p.eat(':') {
			return false
		}
		p.skipWS()
		if !fn(key) {
			return false
		}
		if done, ok := p.next('}'); done || !ok {
			return ok
		}
	}
}

// Array drives one array: fn is called with the cursor on each element
// and must consume it.
func (p *Parser) Array(fn func() bool) bool {
	if !p.open('[') {
		return false
	}
	if p.eat(']') {
		p.depth--
		return true
	}
	for {
		p.skipWS()
		if !fn() {
			return false
		}
		if done, ok := p.next(']'); done || !ok {
			return ok
		}
	}
}

// open consumes a container's opening byte and the whitespace after it,
// failing past maxDepth.
func (p *Parser) open(c byte) bool {
	p.skipWS()
	if !p.eat(c) {
		return false
	}
	p.depth++
	p.skipWS()
	return p.depth <= maxDepth
}

// next consumes the separator after a container element: a comma (more
// elements follow) or the closing byte (done).
func (p *Parser) next(closing byte) (done, ok bool) {
	p.skipWS()
	c, have := p.peek()
	if !have {
		return false, false
	}
	p.pos++
	switch c {
	case closing:
		p.depth--
		return true, true
	case ',':
		return false, true
	}
	return false, false
}
