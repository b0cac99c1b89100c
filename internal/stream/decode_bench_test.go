package stream

// BenchmarkWireDecode{Legacy,Pooled} pit the two JSONL decode paths against
// each other in the daemon's shape: the whole small-study stream (tickets,
// machines, samples, placements) as 1,000-event bodies, each decoded the
// way one POST is. Legacy is the per-line json.Unmarshal path
// (decodeJSONLOnly); Pooled is the zero-copy scanner behind
// Batch.DecodeJSONLInto, one pooled batch per body. Outputs are proven
// identical by the parity tests in decode_test.go; these benchmarks track
// the cost gap and report it per event.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"failscope/internal/dcsim"
)

// benchBodyEvents is the events per body: failload's and failbench's
// default batch.
const benchBodyEvents = 1000

var benchBodies = sync.OnceValues(func() ([][]byte, error) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		return nil, err
	}
	events := EventsFromField(field.Data, field.Tickets, field.Monitor)
	var bodies [][]byte
	for len(events) > 0 {
		n := min(benchBodyEvents, len(events))
		body, err := AppendJSONL(nil, events[:n])
		if err != nil {
			return nil, err
		}
		bodies, events = append(bodies, body), events[n:]
	}
	return bodies, nil
})

// benchDecode runs decode over every body b.N times and reports ns and
// allocations per event.
func benchDecode(b *testing.B, decode func(*bytes.Reader) (int, error)) {
	bodies, err := benchBodies()
	if err != nil {
		b.Fatal(err)
	}
	var rd bytes.Reader
	var events int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = 0
		for _, body := range bodies {
			rd.Reset(body)
			n, err := decode(&rd)
			if err != nil {
				b.Fatal(err)
			}
			events += n
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/event")
}

func BenchmarkWireDecodeLegacy(b *testing.B) {
	benchDecode(b, func(rd *bytes.Reader) (int, error) {
		events, err := decodeJSONLOnly(rd)
		return len(events), err
	})
}

func BenchmarkWireDecodePooled(b *testing.B) {
	benchDecode(b, func(rd *bytes.Reader) (int, error) {
		batch := GetBatch()
		defer batch.Release()
		return batch.DecodeJSONLInto(rd)
	})
}
