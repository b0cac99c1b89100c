package model_test

// BenchmarkDatasetEncode{Legacy,Fast} pit the two ticket-dump encode paths
// against each other on the small study's dataset: a json.Encoder per
// record, and Encode's appenders. encode_test.go proves their bytes equal.

import (
	"bytes"
	"io"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/model"
)

func benchDatasetEncode(b *testing.B, encode func(*model.Dataset, io.Writer) error) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	if err := encode(field.Data, &out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := encode(field.Data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetEncodeLegacy(b *testing.B) { benchDatasetEncode(b, model.EncodeJSONOnly) }

func BenchmarkDatasetEncodeFast(b *testing.B) { benchDatasetEncode(b, (*model.Dataset).Encode) }
