package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"failscope/internal/mempool"
	"failscope/internal/obs"
	"failscope/internal/stream"
)

// Options configures a Store. Zero values take the defaults.
type Options struct {
	// SegmentBytes is the WAL rotation threshold: a segment that has
	// reached it is sealed (flushed, synced, closed) and the next append
	// opens a fresh one. Default 8 MiB.
	SegmentBytes int64

	// CheckpointRetain is how many completed checkpoints to keep; older
	// ones are pruned after each new checkpoint lands. Default 2.
	CheckpointRetain int

	// Registry receives the durable.* metrics (nil-safe).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CheckpointRetain <= 0 {
		o.CheckpointRetain = 2
	}
	return o
}

// RecoveryInfo summarizes what Recover did; failscoped surfaces it on
// /healthz so operators can see how a boot reconstructed its state.
type RecoveryInfo struct {
	CheckpointSeq   int64         `json:"checkpointSeq"`   // seq of the restored checkpoint (0 = none)
	ReplayedRecords int64         `json:"replayedRecords"` // WAL records applied (fully or partially)
	ReplayedEvents  int64         `json:"replayedEvents"`  // events fed back into the engine
	SkippedRecords  int64         `json:"skippedRecords"`  // records entirely covered by the checkpoint
	ApplyErrors     int64         `json:"applyErrors"`     // replayed batches the engine rejected (mirrors live 400s)
	TruncatedBytes  int64         `json:"truncatedBytes"`  // torn tail removed from the last segment
	WALBytes        int64         `json:"walBytes"`        // WAL bytes scanned during replay
	Seq             int64         `json:"seq"`             // engine seq after recovery
	Duration        time.Duration `json:"-"`
	DurationMS      float64       `json:"replayMS"`
}

// segment is one on-disk WAL file.
type segment struct {
	firstSeq int64
	path     string
}

// Store is the durable storage engine for one data directory: the WAL
// writer (it implements stream.Journal) plus checkpoint management and
// crash recovery. A Store is safe for concurrent use; in practice the
// engine serializes Append/Sync under its apply lock while Checkpoint
// runs from the daemon's ticker.
type Store struct {
	dir string
	opt Options
	reg *obs.Registry

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	segSize int64
	segs    []segment // sorted by firstSeq; the last one is open when f != nil
	dirty   bool

	walBytes   int64 // cumulative bytes appended this process
	walRecords int64
	ckptSeq    int64
}

// walRecord is one pooled WAL record buffer: the frame header followed by
// the batch's JSONL payload, written to the segment in a single call.
type walRecord struct{ b []byte }

// walEncPool recycles the record buffers the WAL appends through, so
// steady-state appends allocate nothing.
var walEncPool = mempool.New("durable.walenc", 16,
	func() *walRecord { return &walRecord{b: make([]byte, 0, 64<<10)} },
	func(r *walRecord) *walRecord { r.b = r.b[:0]; return r },
)

// fsyncBucketsMS / checkpointBucketsMS are the latency histogram bounds.
var (
	fsyncBucketsMS      = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500}
	checkpointBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000}
)

// Open prepares the data directory: creates it if needed, removes
// leftovers of interrupted checkpoints and indexes the existing WAL
// segments. It does not touch the engine; call Recover next.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, opt: opt, reg: opt.Registry}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted checkpoint never renamed into place; it is
			// garbage by construction.
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("durable: clean %s: %w", name, err)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("durable: unparseable wal segment name %q", name)
			}
			s.segs = append(s.segs, segment{firstSeq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].firstSeq < s.segs[j].firstSeq })
	if seqs := s.checkpointSeqs(); len(seqs) > 0 {
		s.ckptSeq = seqs[len(seqs)-1]
	}
	s.publishLocked()
	return s, nil
}

// checkpointSeqs lists completed checkpoint sequences, ascending.
func (s *Store) checkpointSeqs() []int64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var seqs []int64
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(name, "checkpoint-") {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimPrefix(name, "checkpoint-"), 16, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func (s *Store) checkpointDir(seq int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("checkpoint-%016x", seq))
}

func (s *Store) segmentPath(firstSeq int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016x.log", firstSeq))
}

// manifest is the checkpoint's integrity record.
type manifest struct {
	Seq        int64  `json:"seq"`
	StateBytes int64  `json:"stateBytes"`
	StateCRC32 uint32 `json:"stateCRC32"`
}

// Append implements stream.Journal: frame the batch and buffer it into the
// current segment, rotating first when the segment is full. Called by the
// engine under its apply lock, immediately before the batch is applied.
func (s *Store) Append(startSeq int64, events []stream.Event) error {
	rec := walEncPool.Get()
	defer walEncPool.Put(rec)
	b, err := stream.AppendJSONL(append(rec.b[:0], make([]byte, recHeaderSize)...), events)
	rec.b = b // keep any growth for the next batch
	if err != nil {
		return err
	}
	if len(b)-recHeaderSize > maxRecordBytes {
		return fmt.Errorf("durable: batch of %d bytes exceeds the record bound", len(b)-recHeaderSize)
	}
	frameRecord(b, startSeq, len(events))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil && s.segSize >= s.opt.SegmentBytes {
		if err := s.sealSegmentLocked(); err != nil {
			return err
		}
	}
	if s.f == nil {
		if err := s.openSegmentLocked(startSeq); err != nil {
			return err
		}
	}

	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	n := int64(len(b))
	s.segSize += n
	s.walBytes += n
	s.walRecords++
	s.dirty = true
	return nil
}

// Sync implements stream.Journal: one fsync per commit group, called by
// the group leader before any caller in the group observes success.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty || s.f == nil {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	s.publishLocked()
	return nil
}

func (s *Store) syncLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("durable: wal flush: %w", err)
	}
	t0 := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	s.reg.Histogram("durable.fsync_ms", fsyncBucketsMS...).
		Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	s.dirty = false
	return nil
}

// openSegmentLocked starts a fresh segment named by the first sequence it
// will hold.
func (s *Store) openSegmentLocked(firstSeq int64) error {
	path := s.segmentPath(firstSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal segment: %w", err)
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return fmt.Errorf("durable: write wal magic: %w", err)
	}
	s.f = f
	if s.w == nil {
		s.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		s.w.Reset(f)
	}
	s.segSize = int64(len(walMagic))
	s.walBytes += int64(len(walMagic))
	// O_TRUNC may be reusing the name of a tail segment recovery emptied
	// (its only record was torn away); don't index it twice.
	if n := len(s.segs); n == 0 || s.segs[n-1].path != path {
		s.segs = append(s.segs, segment{firstSeq: firstSeq, path: path})
	}
	s.dirty = true
	return nil
}

// sealSegmentLocked flushes, syncs and closes the current segment. Sealed
// segments are immutable, which is what lets recovery treat a torn record
// anywhere but the final segment as corruption.
func (s *Store) sealSegmentLocked() error {
	if s.f == nil {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("durable: close wal segment: %w", err)
	}
	s.f = nil
	s.segSize = 0
	return nil
}

// Close seals the current segment and publishes final gauges. It does not
// checkpoint; callers wanting a clean restart checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.sealSegmentLocked()
	s.publishLocked()
	return err
}

func (s *Store) publishLocked() {
	s.reg.Set("durable.wal_bytes", float64(s.walBytes))
	s.reg.Set("durable.wal_records", float64(s.walRecords))
	s.reg.Set("durable.segments_live", float64(len(s.segs)))
	s.reg.Set("durable.checkpoint_seq", float64(s.ckptSeq))
}

// Checkpoint writes the engine's current state as a new checkpoint
// directory, prunes old checkpoints past the retention count, and deletes
// WAL segments the checkpoint fully covers. Returns the checkpointed
// sequence. A checkpoint at the current latest sequence is a no-op.
func (s *Store) Checkpoint(eng *stream.Engine) (int64, error) {
	t0 := time.Now()
	tmp := filepath.Join(s.dir, "checkpoint.tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	f, err := os.Create(filepath.Join(tmp, "state.bin"))
	if err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	h := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(f, h)}
	seq, err := eng.WriteState(cw)
	if err != nil {
		f.Close()
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	s.mu.Lock()
	last := s.ckptSeq
	s.mu.Unlock()
	if seq == last {
		f.Close()
		os.RemoveAll(tmp)
		return seq, nil
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	man, err := json.Marshal(manifest{Seq: seq, StateBytes: cw.n, StateCRC32: h.Sum32()})
	if err != nil {
		os.RemoveAll(tmp)
		return 0, err
	}
	if err := writeFileSync(filepath.Join(tmp, "MANIFEST.json"), man); err != nil {
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	final := s.checkpointDir(seq)
	if err := os.RemoveAll(final); err != nil {
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}

	s.mu.Lock()
	s.ckptSeq = seq
	s.pruneLocked(seq)
	s.publishLocked()
	s.mu.Unlock()
	s.reg.Histogram("durable.checkpoint_ms", checkpointBucketsMS...).
		Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	return seq, nil
}

// pruneLocked deletes checkpoints beyond the retention count and WAL
// segments whose every record is covered by the checkpoint at seq — a
// segment is disposable when its successor starts at or before seq+1. The
// open segment is never deleted.
func (s *Store) pruneLocked(seq int64) {
	seqs := s.checkpointSeqs()
	for len(seqs) > s.opt.CheckpointRetain {
		os.RemoveAll(s.checkpointDir(seqs[0]))
		seqs = seqs[1:]
	}
	for len(s.segs) >= 2 && s.segs[1].firstSeq <= seq+1 {
		if err := os.Remove(s.segs[0].path); err != nil && !os.IsNotExist(err) {
			break
		}
		s.segs = s.segs[1:]
	}
}

// Recover restores the freshest valid checkpoint into the engine and
// replays the WAL tail past it. The engine must be freshly constructed
// with the same configuration the store's state was written under, and
// its journal must not be attached until Recover returns. A torn record
// at the tail of the final segment is truncated away; corruption anywhere
// else aborts recovery.
func (s *Store) Recover(eng *stream.Engine) (RecoveryInfo, error) {
	t0 := time.Now()
	var info RecoveryInfo

	seqs := s.checkpointSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		dir := s.checkpointDir(seqs[i])
		if err := validateCheckpoint(dir, seqs[i]); err != nil {
			// A checkpoint that fails integrity is dead weight; fall back
			// to the previous one (the WAL still covers the gap because
			// segments are pruned only after a checkpoint completes).
			s.reg.Add("durable.checkpoints_invalid", 1)
			continue
		}
		f, err := os.Open(filepath.Join(dir, "state.bin"))
		if err != nil {
			return info, fmt.Errorf("durable: recover: %w", err)
		}
		err = eng.RestoreState(bufio.NewReaderSize(f, 1<<16))
		f.Close()
		if err != nil {
			// Not an integrity failure — the image is sound but does not
			// fit this engine's configuration. Refuse loudly.
			return info, fmt.Errorf("durable: recover: %w", err)
		}
		info.CheckpointSeq = seqs[i]
		break
	}

	if err := s.replayWAL(eng, &info); err != nil {
		return info, err
	}
	info.Seq = eng.Seq()
	info.Duration = time.Since(t0)
	info.DurationMS = float64(info.Duration) / float64(time.Millisecond)

	s.reg.Set("durable.recovery_checkpoint_seq", float64(info.CheckpointSeq))
	s.reg.Set("durable.recovery_replayed_records", float64(info.ReplayedRecords))
	s.reg.Set("durable.recovery_replayed_events", float64(info.ReplayedEvents))
	s.reg.Set("durable.recovery_replay_ms", info.DurationMS)
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return info, nil
}

// replayWAL feeds every segment's surviving records into the engine,
// skipping what the checkpoint already covers.
func (s *Store) replayWAL(eng *stream.Engine, info *RecoveryInfo) error {
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()

	var scratch []byte
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := s.replaySegment(eng, seg, last, &scratch, info); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) replaySegment(eng *stream.Engine, seg segment, last bool, scratch *[]byte, info *RecoveryInfo) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("durable: replay %s: %w", filepath.Base(seg.path), err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		if last && err != nil {
			// The segment file was created but the magic never reached
			// disk: an empty shell from a crash at open. Discard it.
			return s.truncateTail(seg, 0, info)
		}
		return fmt.Errorf("durable: segment %s: bad magic", filepath.Base(seg.path))
	}

	offset := int64(len(walMagic))
	for {
		startSeq, count, payload, err := readRecord(br, *scratch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if last {
				return s.truncateTail(seg, offset, info)
			}
			return fmt.Errorf("durable: segment %s at offset %d: %w", filepath.Base(seg.path), offset, err)
		}
		if cap(payload) > cap(*scratch) {
			*scratch = payload[:0]
		}
		recBytes := int64(recHeaderSize + len(payload))
		info.WALBytes += recBytes

		cur := eng.Seq()
		if startSeq > cur+1 {
			return fmt.Errorf("durable: segment %s: wal gap (record seq %d, engine at %d)",
				filepath.Base(seg.path), startSeq, cur)
		}
		skip := cur - startSeq + 1 // events in this record the checkpoint already covers
		if skip >= int64(count) {
			info.SkippedRecords++
			offset += recBytes
			continue
		}

		b := stream.GetBatch()
		n, derr := b.DecodeJSONLInto(bytes.NewReader(payload))
		if derr != nil || n != count {
			b.Release()
			if last {
				// The checksum matched, so this is not media corruption —
				// but a record that no longer decodes to its own framing
				// cannot be replayed. At the tail, treat like a torn write.
				return s.truncateTail(seg, offset, info)
			}
			if derr == nil {
				derr = fmt.Errorf("decoded %d events, header says %d", n, count)
			}
			return fmt.Errorf("durable: segment %s record at %d: %w", filepath.Base(seg.path), offset, derr)
		}
		if err := eng.Apply(b.Events[skip:]); err != nil {
			// Live ingest surfaced this as a 400 and carried on with the
			// partial prefix applied; replay mirrors that exactly.
			info.ApplyErrors++
		}
		b.Release()
		info.ReplayedRecords++
		info.ReplayedEvents += int64(count) - skip
		offset += recBytes
	}
}

// truncateTail cuts the final segment at offset, discarding a torn tail.
func (s *Store) truncateTail(seg segment, offset int64, info *RecoveryInfo) error {
	st, err := os.Stat(seg.path)
	if err != nil {
		return fmt.Errorf("durable: truncate %s: %w", filepath.Base(seg.path), err)
	}
	info.TruncatedBytes += st.Size() - offset
	if offset == 0 {
		// Nothing valid in the file at all; remove it entirely so the
		// next append names a fresh segment.
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("durable: truncate %s: %w", filepath.Base(seg.path), err)
		}
		s.mu.Lock()
		for i := range s.segs {
			if s.segs[i].path == seg.path {
				s.segs = append(s.segs[:i], s.segs[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return nil
	}
	if err := os.Truncate(seg.path, offset); err != nil {
		return fmt.Errorf("durable: truncate %s: %w", filepath.Base(seg.path), err)
	}
	return syncPath(seg.path)
}

// validateCheckpoint verifies a checkpoint directory's manifest and the
// state file's length and checksum.
func validateCheckpoint(dir string, seq int64) error {
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return err
	}
	if man.Seq != seq {
		return fmt.Errorf("manifest seq %d, directory says %d", man.Seq, seq)
	}
	f, err := os.Open(filepath.Join(dir, "state.bin"))
	if err != nil {
		return err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return err
	}
	if n != man.StateBytes {
		return fmt.Errorf("state.bin is %d bytes, manifest says %d", n, man.StateBytes)
	}
	if h.Sum32() != man.StateCRC32 {
		return fmt.Errorf("state.bin checksum mismatch")
	}
	return nil
}

// CheckpointSeq returns the newest completed checkpoint's sequence.
func (s *Store) CheckpointSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptSeq
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error { return syncPath(dir) }

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}
