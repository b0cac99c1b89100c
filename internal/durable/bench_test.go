package durable

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"failscope/internal/dcsim"
	"failscope/internal/detect"
	"failscope/internal/par"
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

// BenchmarkWALAppendWire is BenchmarkWALAppendStudy journaling each
// batch from its wire body (Store.AppendWire), as the daemon does for a
// POST: framing and the buffered write, with no encode.
func BenchmarkWALAppendWire(b *testing.B) {
	batches, err := studyBatches()
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(batches))
	for i, batch := range batches {
		var body bytes.Buffer
		if err := stream.EncodeJSONL(&body, batch); err != nil {
			b.Fatal(err)
		}
		bodies[i] = body.Bytes()
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
		n := len(batches[i%len(batches)])
		if err := st.AppendWire(seq, n, bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
		seq += int64(n)
		events += n
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

// studyConfig is the engine configuration failscoped runs the small
// study's stream under.
func studyConfig() stream.Config {
	c := dcsim.SmallConfig()
	return stream.Config{
		Observation: c.Observation,
		FineWindow:  c.FineWindow,
		Detector:    detect.New(detect.Config{}),
	}
}

// benchmarkRecoverStudy measures a boot that replays the whole small
// study's WAL (271k events in 1,000-event records, no checkpoint) into a
// fresh engine with a detector, as failscoped's durable boot does, with
// the records decoded on workers goroutines.
func benchmarkRecoverStudy(b *testing.B, workers int) {
	batches, err := studyBatches()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := stream.NewEngine(studyConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng.SetJournal(st)
	events := 0
	for _, batch := range batches {
		if err := eng.Apply(batch); err != nil {
			b.Fatal(err)
		}
		events += len(batch)
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
		fresh, err := stream.NewEngine(studyConfig())
		if err != nil {
			b.Fatal(err)
		}
		info, err := st.recoverOn(fresh, workers)
		if err != nil {
			b.Fatal(err)
		}
		if info.ReplayedEvents != int64(events) {
			b.Fatalf("replayed %d events, want %d", info.ReplayedEvents, events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

func BenchmarkRecoverStudy_Workers1(b *testing.B)   { benchmarkRecoverStudy(b, 1) }
func BenchmarkRecoverStudy_WorkersMax(b *testing.B) { benchmarkRecoverStudy(b, par.Workers(0)) }

// studyEngine applies the whole small study to an engine with a detector:
// the state a durable daemon checkpoints at the end of the study.
func studyEngine(b *testing.B) *stream.Engine {
	batches, err := studyBatches()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := stream.NewEngine(studyConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches {
		if err := eng.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkCheckpointStudy measures what a checkpoint costs ingest: the
// study engine's image encoded under the engine lock into a file, as
// Store.Checkpoint writes it. lock-ms/op is the time the lock was held:
// nothing else takes it here, so that is the whole WriteState call.
func BenchmarkCheckpointStudy(b *testing.B) {
	eng := studyEngine(b)
	f, err := os.Create(filepath.Join(b.TempDir(), "state.bin"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var held time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if _, err := eng.WriteState(f); err != nil {
			b.Fatal(err)
		}
		held += time.Since(t0)
	}
	b.ReportMetric(float64(held)/float64(time.Millisecond)/float64(b.N), "lock-ms/op")
}

// BenchmarkRestoreStudy measures the restore half of a recovery: the study
// engine's image decoded into a fresh engine with a detector.
func BenchmarkRestoreStudy(b *testing.B) {
	var img bytes.Buffer
	if _, err := studyEngine(b).WriteState(&img); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := stream.NewEngine(studyConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.RestoreState(bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
