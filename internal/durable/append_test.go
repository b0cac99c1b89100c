package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"failscope/internal/dcsim"
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

// appendRecord appends a framed record to dst and returns the extended
// slice.
func appendRecord(dst []byte, startSeq int64, count int, payload []byte) []byte {
	n := len(dst)
	dst = append(append(dst, make([]byte, recHeaderSize)...), payload...)
	frameHeader(dst[n:n+recHeaderSize], startSeq, count, payload)
	return dst
}

// TestAppendMatchesJSONOnlyWAL journals the whole study stream twice, by
// Append and by AppendWire of each batch's canonical wire body
// (stream.EncodeJSONL), and requires both segments to equal, byte for
// byte, one framed from json.Encoder payloads: the WAL format depends
// neither on the encoder nor on which path journaled a canonical body.
func TestAppendMatchesJSONOnlyWAL(t *testing.T) {
	batches, err := studyBatches()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(walMagic)
	seq := int64(1)
	for _, b := range batches {
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

	journal := map[string]func(st *Store, seq int64, b []stream.Event) error{
		"Append": func(st *Store, seq int64, b []stream.Event) error { return st.Append(seq, b) },
		"AppendWire": func(st *Store, seq int64, b []stream.Event) error {
			var body bytes.Buffer
			if err := stream.EncodeJSONL(&body, b); err != nil {
				return err
			}
			return st.AppendWire(seq, len(b), body.Bytes())
		},
	}
	for name, appendBatch := range journal {
		dir := t.TempDir()
		st, err := Open(dir, Options{SegmentBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		seq := int64(1)
		for _, b := range batches {
			if err := appendBatch(st, seq, b); err != nil {
				t.Fatal(err)
			}
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
			t.Errorf("%s: segment differs from the json-only framing (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestAppendSteadyStateAllocs pins Store.Append at zero allocations per
// batch once the pooled payload buffer has grown to the batch size, and
// Store.AppendWire at zero from the first batch.
func TestAppendSteadyStateAllocs(t *testing.T) {
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
	var body bytes.Buffer
	if err := stream.EncodeJSONL(&body, batch); err != nil {
		t.Fatal(err)
	}
	seq := int64(1)
	appendOnce := func() {
		if err := st.Append(seq, batch); err != nil {
			t.Fatal(err)
		}
		seq += int64(len(batch))
	}
	appendOnce() // open the segment and grow the payload buffer
	if avg := testing.AllocsPerRun(50, appendOnce); avg != 0 {
		t.Fatalf("Store.Append allocates %.2f times per %d-event batch, want 0", avg, len(batch))
	}
	appendWire := func() {
		if err := st.AppendWire(seq, len(batch), body.Bytes()); err != nil {
			t.Fatal(err)
		}
		seq += int64(len(batch))
	}
	if avg := testing.AllocsPerRun(50, appendWire); avg != 0 {
		t.Fatalf("Store.AppendWire allocates %.2f times per %d-event batch, want 0", avg, len(batch))
	}
}
