package monitordb_test

// BenchmarkMonitorDecode{Legacy,Fast} pit the two monitoring-dump decode
// paths against each other on the small study's dump: json.Unmarshal and
// Add per line, and Decode's jsonl scanner with per-series AddSeries runs.
// decode_test.go proves the decoded databases equal.

import (
	"bytes"
	"io"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/monitordb"
)

func benchMonitorDecode(b *testing.B, decode func(io.Reader) (*monitordb.DB, error)) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	var dump bytes.Buffer
	if err := field.Monitor.Encode(&dump); err != nil {
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

func BenchmarkMonitorDecodeLegacy(b *testing.B) { benchMonitorDecode(b, monitordb.DecodeJSONOnly) }

func BenchmarkMonitorDecodeFast(b *testing.B) { benchMonitorDecode(b, monitordb.Decode) }

// BenchmarkMonitorDecodeFast_Workers{1,Max} pin Decode's worker count: the
// inline sequential path, and one worker per GOMAXPROCS.
func BenchmarkMonitorDecodeFast_Workers1(b *testing.B) { benchMonitorDecode(b, decodeOn(1)) }

func BenchmarkMonitorDecodeFast_WorkersMax(b *testing.B) { benchMonitorDecode(b, decodeOn(0)) }

// decodeOn returns DecodeParallel at parallelism p, stats dropped.
func decodeOn(p int) func(io.Reader) (*monitordb.DB, error) {
	return func(r io.Reader) (*monitordb.DB, error) {
		v, _, err := monitordb.DecodeParallel(r, p)
		return v, err
	}
}
