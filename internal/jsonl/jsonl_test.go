package jsonl

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// scalarTokens mixes values the scanner accepts with ones it must refuse:
// nulls, exponents, overflow, escapes, surrogates, invalid UTF-8, offsets.
var scalarTokens = []string{
	`0`, `-0`, `17`, `-42`, `01`, `1.5`, `-1.25e+2`, `5e-324`, `1e400`, `1.`, `-`,
	`9223372036854775807`, `9223372036854775808`, `true`, `false`, `tru`, `null`,
	`"plain"`, `"q\"b\\s\/b\bf\fn\nr\rt\t"`, `"é<"`, `"😀"`,
	`"\q"`, "\"bad \xff\"", "\"ctl \x01\"", `"2012-08-05T00:00:00Z"`,
	`"2012-08-05T00:00:00.123456789Z"`, `"2012-08-05T02:00:00+02:00"`,
	`"2012-02-30T00:00:00Z"`, `"2012-02-29T23:59:59.5Z"`, `"2012-08-05T24:00:00Z"`,
}

// TestScalarsAgreeWithEncodingJSON holds every typed primitive to the
// package contract: whatever it accepts, json.Unmarshal accepts into the
// same Go type with the same value.
func TestScalarsAgreeWithEncodingJSON(t *testing.T) {
	var p Parser
	type scan func() (any, bool)
	kinds := map[string]struct {
		scan scan
		dst  func() any
	}{
		"int":    {func() (any, bool) { return p.Int() }, func() any { return new(int) }},
		"int64":  {func() (any, bool) { return p.Int64() }, func() any { return new(int64) }},
		"float":  {func() (any, bool) { return p.Float() }, func() any { return new(float64) }},
		"bool":   {func() (any, bool) { return p.Bool() }, func() any { return new(bool) }},
		"string": {func() (any, bool) { return p.String() }, func() any { return new(string) }},
		"time":   {func() (any, bool) { return p.Time() }, func() any { return new(time.Time) }},
	}
	accepted := 0
	for name, k := range kinds {
		for _, tok := range scalarTokens {
			p.Reset([]byte(tok))
			got, ok := k.scan()
			if !ok || !p.End() {
				continue
			}
			accepted++
			dst := k.dst()
			if err := json.Unmarshal([]byte(tok), dst); err != nil {
				t.Errorf("%s: scanner accepted %s, json rejects it: %v", name, tok, err)
				continue
			}
			if want := reflect.ValueOf(dst).Elem().Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: scanner %#v, json %#v", name, tok, got, want)
			}
		}
	}
	if accepted < 20 {
		t.Errorf("scanner accepted only %d (kind, token) pairs", accepted)
	}
}

// TestSkipAgreesWithEncodingJSON checks Skip accepts a value only when it
// is valid JSON, and refuses nesting past maxDepth.
func TestSkipAgreesWithEncodingJSON(t *testing.T) {
	values := append([]string{
		`{}`, `[]`, `{"a":[1,{"b":null}],"c":"x"}`, `[1,]`, `{"a":1,}`, `{"a" 1}`,
		`[1 2]`, `{"\q":1}`, `{"a":"\q"}`, ` [ 1 , [ ] ] `,
	}, scalarTokens...)
	var p Parser
	for _, v := range values {
		p.Reset([]byte(v))
		if p.Skip() && p.End() && !json.Valid([]byte(v)) {
			t.Errorf("Skip accepted invalid JSON %s", v)
		}
	}
	deep := make([]byte, 0, 2*(maxDepth+1))
	for i := 0; i <= maxDepth; i++ {
		deep = append(deep, '[')
	}
	for i := 0; i <= maxDepth; i++ {
		deep = append(deep, ']')
	}
	p.Reset(deep)
	if p.Skip() {
		t.Errorf("Skip accepted nesting deeper than %d", maxDepth)
	}
	p.Reset(deep[1 : len(deep)-1])
	if !p.Skip() || !p.End() {
		t.Errorf("Skip refused nesting of exactly %d", maxDepth)
	}
}
