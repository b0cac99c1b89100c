package stream

// BenchmarkEncodeJSONL{Legacy,Fast} pit the two wire encode paths against
// each other on the small study's full event stream (90% samples): a
// json.Encoder per call, and EncodeJSONL's appenders. encode_test.go
// proves their bytes equal.

import (
	"bytes"
	"io"
	"testing"
)

func benchEncodeJSONL(b *testing.B, encode func(io.Writer, []Event) error) {
	events, err := studyEvents()
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	if err := encode(&out, events); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := encode(&out, events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

func BenchmarkEncodeJSONLLegacy(b *testing.B) { benchEncodeJSONL(b, encodeJSONLJSONOnly) }

func BenchmarkEncodeJSONLFast(b *testing.B) { benchEncodeJSONL(b, EncodeJSONL) }
