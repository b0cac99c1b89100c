package stream

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestBatchWire: a successful decode into an empty batch keeps the body
// as read; a failed decode, a second decode into the same batch, and a
// released batch keep none.
func TestBatchWire(t *testing.T) {
	body := "{\"type\":\"advance\",\"time\":\"2012-09-01T00:00:00Z\"}\r\n\n{\"type\":\"advance\",\"time\":\"2012-09-02T00:00:00Z\"}"
	b := GetBatch()
	defer b.Release()
	if n, err := b.DecodeJSONLInto(strings.NewReader(body)); err != nil || n != 2 {
		t.Fatalf("decode: %d events, %v", n, err)
	}
	if got := string(b.wire); got != body {
		t.Fatalf("wire = %q, want the body %q", got, body)
	}
	if _, err := b.DecodeJSONLInto(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if b.wire != nil {
		t.Error("a batch holding two bodies' events keeps wire bytes")
	}

	bad := GetBatch()
	defer bad.Release()
	if _, err := bad.DecodeJSONLInto(strings.NewReader(body + "\nnot json\n")); err == nil {
		t.Fatal("malformed body accepted")
	}
	if bad.wire != nil {
		t.Error("a refused body kept wire bytes")
	}

	b.reset()
	if b.wire != nil {
		t.Error("a recycled batch kept wire bytes")
	}
}

// wireJournal records which append each batch took, and fails AppendWire
// with err when set.
type wireJournal struct {
	recordingJournal
	wires [][]byte
	err   error
}

func (j *wireJournal) AppendWire(startSeq int64, count int, jsonl []byte) error {
	if j.err != nil {
		return j.err
	}
	j.wires = append(j.wires, append([]byte(nil), jsonl...))
	return nil
}

// TestApplyBatchTimedJournalsWire: a decoded batch reaches a WireJournal
// through AppendWire with its body; events applied as events reach it
// through Append. A failed AppendWire poisons the batch as a failed
// Append does: nothing applies and the error names the journal.
func TestApplyBatchTimedJournalsWire(t *testing.T) {
	body := []byte("{\"type\":\"advance\",\"time\":\"2012-09-01T00:00:00Z\"}\n")
	eng, err := NewEngine(groupedTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	j := &wireJournal{}
	eng.SetJournal(j)

	b := GetBatch()
	defer b.Release()
	if _, err := b.DecodeJSONLInto(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatchTimed(b); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyTimed(b.Events); err != nil {
		t.Fatal(err)
	}
	if len(j.wires) != 1 || !bytes.Equal(j.wires[0], body) {
		t.Errorf("AppendWire got %q, want the one body", j.wires)
	}
	if len(j.records) != 1 || j.records[0].startSeq != 2 {
		t.Errorf("Append got %d records, want one at seq 2", len(j.records))
	}

	j.err = errors.New("disk full")
	if _, err := eng.ApplyBatchTimed(b); err == nil || !strings.Contains(err.Error(), "journal append: disk full") {
		t.Fatalf("failed AppendWire returned %v", err)
	}
	if eng.Seq() != 2 {
		t.Errorf("engine at seq %d after a poisoned batch, want 2", eng.Seq())
	}
}
