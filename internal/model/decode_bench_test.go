package model_test

// BenchmarkDatasetDecode{Legacy,Fast} pit the two ticket-dump decode paths
// against each other on the small study's dump: json.Unmarshal per line,
// and Decode's jsonl scanner. decode_test.go proves their outputs equal.

import (
	"bytes"
	"io"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/model"
)

func benchDatasetDecode(b *testing.B, decode func(io.Reader) (*model.Dataset, error)) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	var dump bytes.Buffer
	if err := field.Data.Encode(&dump); err != nil {
		b.Fatal(err)
	}
	raw := dump.Bytes()
	var rd bytes.Reader
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		if _, err := decode(&rd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetDecodeLegacy(b *testing.B) { benchDatasetDecode(b, model.DecodeJSONOnly) }

func BenchmarkDatasetDecodeFast(b *testing.B) { benchDatasetDecode(b, model.Decode) }

// BenchmarkDatasetDecodeFast_Workers{1,Max} pin Decode's worker count: the
// inline sequential path, and one worker per GOMAXPROCS.
func BenchmarkDatasetDecodeFast_Workers1(b *testing.B) { benchDatasetDecode(b, decodeOn(1)) }

func BenchmarkDatasetDecodeFast_WorkersMax(b *testing.B) { benchDatasetDecode(b, decodeOn(0)) }

// decodeOn returns DecodeParallel at parallelism p, stats dropped.
func decodeOn(p int) func(io.Reader) (*model.Dataset, error) {
	return func(r io.Reader) (*model.Dataset, error) {
		v, _, err := model.DecodeParallel(r, p)
		return v, err
	}
}
