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
//	  payload              (JSONL via the stream wire codec, stream.AppendJSONL)
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

// frameRecord fills in the header of rec, a record laid out as
// recHeaderSize header bytes followed by its payload.
func frameRecord(rec []byte, startSeq int64, count int) {
	hdr, payload := rec[:recHeaderSize], rec[recHeaderSize:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(startSeq))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(count))
	crc := crc32.ChecksumIEEE(hdr[8:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
}

// appendRecord appends the framed record to dst and returns the extended
// slice.
func appendRecord(dst []byte, startSeq int64, count int, payload []byte) []byte {
	n := len(dst)
	dst = append(append(dst, make([]byte, recHeaderSize)...), payload...)
	frameRecord(dst[n:], startSeq, count)
	return dst
}

// errTornRecord marks a record that ends before its framing says it
// should — the signature of a crash mid-write. Recovery truncates these
// at the tail of the last segment and refuses them anywhere else.
var errTornRecord = fmt.Errorf("durable: torn wal record")

// readRecord reads one record from r. It returns (0, 0, nil, io.EOF) at a
// clean end, errTornRecord when the stream ends inside a record, and a
// corruption error when the framing is implausible or the checksum fails.
// buf is the scratch payload buffer, reused when large enough.
func readRecord(r io.Reader, buf []byte) (startSeq int64, count int, payload []byte, err error) {
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF // clean record boundary
		}
		return 0, 0, nil, errTornRecord
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
		return 0, 0, nil, errTornRecord
	}
	crc := crc32.ChecksumIEEE(hdr[8:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != wantCRC {
		return 0, 0, nil, fmt.Errorf("durable: wal record crc mismatch (seq %d)", startSeq)
	}
	if startSeq < 1 || count < 0 {
		return 0, 0, nil, fmt.Errorf("durable: wal record header implausible (seq %d, count %d)", startSeq, count)
	}
	return startSeq, count, payload, nil
}
