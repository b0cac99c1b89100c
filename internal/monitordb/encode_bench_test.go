package monitordb_test

// BenchmarkMonitorEncode{Legacy,Fast} pit the two monitoring-dump encode
// paths against each other on the small study's database: a json.Encoder
// per record, and Encode's appenders. encode_test.go proves their bytes
// equal.

import (
	"bytes"
	"io"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/monitordb"
)

func benchMonitorEncode(b *testing.B, encode func(*monitordb.DB, io.Writer) error) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	if err := encode(field.Monitor, &out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := encode(field.Monitor, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitorEncodeLegacy(b *testing.B) { benchMonitorEncode(b, monitordb.EncodeJSONOnly) }

func BenchmarkMonitorEncodeFast(b *testing.B) { benchMonitorEncode(b, (*monitordb.DB).Encode) }
