package durable

import (
	"testing"

	"failscope/internal/stream"
)

// benchBatch is a representative ingest batch: 5 tickets, as testBatches
// produces them.
func benchBatch() []stream.Event {
	return testBatches(2)[1]
}

// BenchmarkWALAppend measures the journal hot path: encode + frame +
// buffered write, with the group-commit fsync amortized every 64 batches
// (a plausible group size under concurrent ingest).
func BenchmarkWALAppend(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := benchBatch()
	seq := int64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(seq, batch); err != nil {
			b.Fatal(err)
		}
		seq += int64(len(batch))
		if i%64 == 63 {
			if err := st.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWALAppendStudy is BenchmarkWALAppend on the traffic a durable
// daemon journals: 1,000-event batches of the small study's stream, 90%
// samples, cycling through the whole stream.
func BenchmarkWALAppendStudy(b *testing.B) {
	batches, err := studyBatches()
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seq, events := int64(1), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		if err := st.Append(seq, batch); err != nil {
			b.Fatal(err)
		}
		seq += int64(len(batch))
		events += len(batch)
		if i%8 == 7 {
			if err := st.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkRecovery measures a full boot-time recovery: checkpoint
// restore plus WAL tail replay over a directory holding 200 batches with
// a checkpoint at the midpoint.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := stream.NewEngine(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Recover(eng); err != nil {
		b.Fatal(err)
	}
	eng.SetJournal(st)
	for i, batch := range testBatches(200) {
		if err := eng.Apply(batch); err != nil {
			b.Fatal(err)
		}
		if i == 100 {
			if _, err := st.Checkpoint(eng); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		fresh, err := stream.NewEngine(testConfig())
		if err != nil {
			b.Fatal(err)
		}
		info, err := st.Recover(fresh)
		if err != nil {
			b.Fatal(err)
		}
		if info.Seq == 0 {
			b.Fatal("recovered nothing")
		}
	}
}
