package stream

// BenchmarkWireDecode{Legacy,Pooled} pit the two JSONL decode paths against
// each other on a real small-study event mix (tickets, machines, samples,
// placements): the legacy per-line json.Unmarshal path (decodeJSONLOnly) and
// the pooled zero-copy fast parser behind Batch.DecodeJSONLInto. Outputs
// are proven identical by the parity tests in decode_test.go; these
// benchmarks track the cost gap.

import (
	"bytes"
	"testing"

	"failscope/internal/dcsim"
)

func benchWire(b *testing.B) []byte {
	b.Helper()
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	events := EventsFromField(field.Data, field.Tickets, field.Monitor)[:20000]
	var wire bytes.Buffer
	if err := EncodeJSONL(&wire, events); err != nil {
		b.Fatal(err)
	}
	return wire.Bytes()
}

func BenchmarkWireDecodeLegacy(b *testing.B) {
	raw := benchWire(b)
	var rd bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		if _, err := decodeJSONLOnly(&rd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodePooled(b *testing.B) {
	raw := benchWire(b)
	var rd bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		batch := GetBatch()
		if _, err := batch.DecodeJSONLInto(&rd); err != nil {
			b.Fatal(err)
		}
		batch.Release()
	}
}
