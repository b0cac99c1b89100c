package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/mempool"
	"failscope/internal/stream"
)

// studyBatches is the small study's event stream cut into the 1,000-event
// batches a replaying client posts, generated once per test binary.
var studyBatches = sync.OnceValues(func() ([][]stream.Event, error) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		return nil, err
	}
	events := stream.EventsFromField(field.Data, field.Tickets, field.Monitor)
	var batches [][]stream.Event
	for lo := 0; lo < len(events); lo += 1000 {
		batches = append(batches, events[lo:min(lo+1000, len(events))])
	}
	return batches, nil
})

// TestAppendMatchesJSONOnlyWAL journals the whole study stream and
// requires the segment to equal, byte for byte, one framed from
// json.Encoder payloads: the WAL format does not depend on the encoder.
func TestAppendMatchesJSONOnlyWAL(t *testing.T) {
	batches, err := studyBatches()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(walMagic)
	seq := int64(1)
	for _, b := range batches {
		if err := st.Append(seq, b); err != nil {
			t.Fatal(err)
		}
		var payload bytes.Buffer
		enc := json.NewEncoder(&payload)
		for _, ev := range b {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		want = appendRecord(want, seq, len(b), payload.Bytes())
		seq += int64(len(b))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment differs from the json-only framing (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAppendSteadyStateAllocs pins Store.Append at zero allocations per
// batch once the pooled record buffer has grown to the batch size.
func TestAppendSteadyStateAllocs(t *testing.T) {
	if !mempool.Enabled() {
		t.Skip("pooling disabled")
	}
	batches, err := studyBatches()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batch := batches[len(batches)/2]
	seq := int64(1)
	appendOnce := func() {
		if err := st.Append(seq, batch); err != nil {
			t.Fatal(err)
		}
		seq += int64(len(batch))
	}
	appendOnce() // open the segment and grow the record buffer
	if avg := testing.AllocsPerRun(50, appendOnce); avg != 0 {
		t.Fatalf("Store.Append allocates %.2f times per %d-event batch, want 0", avg, len(batch))
	}
}
