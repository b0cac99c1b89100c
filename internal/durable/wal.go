// Package durable is failscoped's storage engine: a write-ahead event log
// plus checkpointed engine-state segments, giving the streaming daemon
// crash recovery with exact replay semantics.
//
// The contract is the one the engine's group commit provides: every batch
// is appended to the WAL (in apply order, under the engine lock)
// immediately before it is applied, and a single fsync per commit group
// lands before any caller observes success. Recovery restores the newest
// valid checkpoint and replays the WAL tail past the checkpoint sequence;
// the recovered engine is observationally identical to one that never
// crashed — the equivalence is enforced record-for-record by the tests in
// this package and end to end by the repo's crash-recovery suite.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL segment file layout:
//
//	magic "FSWAL001" (8 bytes)
//	records until EOF, each:
//	  u32 payload length   (little-endian)
//	  u32 CRC32-IEEE       (over the 12 seq/count bytes + payload)
//	  u64 start sequence   (engine seq the record's first event takes)
//	  u32 event count
//	  payload              (the batch as JSONL: see below)
//
// A batch decoded from a POST body is journaled from that body, the bytes
// the decoder validated (Store.AppendWire); a batch applied in process
// from events is encoded by stream.AppendJSONL (Store.Append). Either
// payload decodes, with the wire decoder, to the batch's events, which is
// all replay reads of it.
//
// Segments are named wal-%016x.log by the start sequence of their first
// record. A torn record at the tail of the *last* segment is the expected
// signature of a crash between write and fsync and is truncated away;
// anywhere else it is corruption and recovery refuses.

const (
	walMagic      = "FSWAL001"
	recHeaderSize = 4 + 4 + 8 + 4

	// maxRecordBytes bounds a decoded record's payload so a corrupt
	// length prefix cannot drive a giant allocation.
	maxRecordBytes = 64 << 20
)

// frameHeader fills hdr, recHeaderSize bytes, with the header of the
// record that carries payload.
func frameHeader(hdr []byte, startSeq int64, count int, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(startSeq))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:8], recordCRC(hdr, payload))
}

// recordCRC is the checksum a record's header carries: CRC32-IEEE over
// the header's sequence and count fields, then the payload.
func recordCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[8:20]), crc32.IEEETable, payload)
}

// errTornRecord marks a record that ends before its framing says it
// should — the signature of a crash mid-write. Recovery truncates these
// at the tail of the last segment and refuses them anywhere else.
var errTornRecord = fmt.Errorf("durable: torn wal record")

// errWALRead marks a failed read of the segment file — an I/O error, not
// damage in the bytes read. Recovery refuses it in every segment: the
// bytes on disk may be intact, and truncating them could drop records
// that were fsynced.
var errWALRead = errors.New("durable: wal read")

func readError(err error) error { return fmt.Errorf("%w: %w", errWALRead, err) }

// readRecord reads one record from r. It returns (0, 0, nil, io.EOF) at a
// clean end, errTornRecord when the stream ends inside a record, a
// corruption error when the framing is implausible or the checksum fails,
// and an errWALRead error when r itself fails. buf is the scratch payload
// buffer, reused when large enough.
func readRecord(r io.Reader, buf []byte) (startSeq int64, count int, payload []byte, err error) {
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		switch err {
		case io.EOF:
			return 0, 0, nil, io.EOF // clean record boundary
		case io.ErrUnexpectedEOF:
			return 0, 0, nil, errTornRecord
		}
		return 0, 0, nil, readError(err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordBytes {
		return 0, 0, nil, fmt.Errorf("durable: wal record length %d implausible", n)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	startSeq = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	count = int(binary.LittleEndian.Uint32(hdr[16:20]))
	if cap(buf) >= int(n) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, 0, nil, errTornRecord
		}
		return 0, 0, nil, readError(err)
	}
	if recordCRC(hdr[:], payload) != wantCRC {
		return 0, 0, nil, fmt.Errorf("durable: wal record crc mismatch (seq %d)", startSeq)
	}
	if startSeq < 1 || count < 0 {
		return 0, 0, nil, fmt.Errorf("durable: wal record header implausible (seq %d, count %d)", startSeq, count)
	}
	return startSeq, count, payload, nil
}
