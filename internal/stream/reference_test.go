package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// decodeJSONLOnly is Batch.DecodeJSONLInto with every line through
// json.Unmarshal: the reference TestDecodeJSONLIntoMatchesLegacy,
// FuzzDecodeJSONL and BenchmarkWireDecodeLegacy hold the pooled decoder
// to. Errors name the 1-based line number of the offending record; blank
// lines are skipped.
func decodeJSONLOnly(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		if ev.Type == "" {
			return nil, fmt.Errorf("stream: line %d: event without type", line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return events, nil
}
