package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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
	"failscope/internal/par"
	"failscope/internal/stream"
)

// Options configures a Store. Zero values take the defaults.
type Options struct {
	// SegmentBytes is the WAL rotation threshold: a segment that has
	// reached it is sealed (flushed, synced, closed) and the next append
	// opens a fresh one. Default 8 MiB.
	SegmentBytes int64

	// CheckpointRetain is how many completed checkpoints to keep; older
	// ones are pruned after each new checkpoint lands, and the WAL keeps
	// every segment the oldest kept one needs. Default 2.
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
	Replay          par.Stats     `json:"-"` // the replay pipeline: workers, records replayed or skipped, decode time

	replayedBytes int64 // WAL bytes of the records replayed
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
	ckptBytes  int64 // the newest checkpoint's image size (its manifest byte count)
	sinceCkpt  int64 // WAL record bytes past the newest checkpoint

	// sealed receives a token each time a segment seals; see Sealed.
	sealed chan struct{}
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
	s := &Store{dir: dir, opt: opt, reg: opt.Registry, sealed: make(chan struct{}, 1)}

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
	s.sinceCkpt += n
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
// anywhere but the final segment as corruption. Sealing signals Sealed
// once the WAL past the newest checkpoint has grown to that checkpoint's
// image size: a checkpoint then never writes more bytes than the WAL it
// follows, and a recovery replays at most about an image's worth of WAL
// plus the segment that crossed the mark.
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
	if s.sinceCkpt >= s.ckptBytes {
		select {
		case s.sealed <- struct{}{}:
		default: // a checkpoint is already due; seals coalesce
		}
	}
	return nil
}

// Sealed returns a channel that holds a token once a WAL segment has
// sealed, with at least an image's worth of WAL past the newest
// checkpoint, since the last receive. A checkpoint taken on it bounds
// what a recovery replays. The send never blocks the appender: seals
// coalesce.
func (s *Store) Sealed() <-chan struct{} { return s.sealed }

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
// sequence. An engine still at the newest checkpoint's sequence is not
// written again: the call returns that sequence and touches nothing.
//
// The engine lock is held only while the image is encoded into the
// file; the fsync, the manifest, the rename and the pruning run after it
// is released.
func (s *Store) Checkpoint(eng *stream.Engine) (int64, error) {
	t0 := time.Now()
	s.mu.Lock()
	last, since := s.ckptSeq, s.sinceCkpt
	s.mu.Unlock()
	if eng.Seq() == last {
		return last, nil
	}
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
	s.ckptSeq, s.ckptBytes = seq, cw.n
	// What was appended before the image was taken is covered by it (and
	// a few records appended while it waited for the engine lock are
	// counted once more, which only brings the next checkpoint forward).
	s.sinceCkpt -= since
	s.pruneLocked()
	s.publishLocked()
	s.mu.Unlock()
	s.reg.Histogram("durable.checkpoint_ms", checkpointBucketsMS...).
		Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	return seq, nil
}

// pruneLocked deletes checkpoints beyond the retention count and WAL
// segments whose every record is covered by the oldest checkpoint kept —
// a segment is disposable when its successor starts at or before that
// checkpoint's seq+1. The segments between the kept checkpoints stay, so
// a recovery that finds the newest checkpoint damaged can fall back to
// the previous one and replay from there. The open segment is never
// deleted.
func (s *Store) pruneLocked() {
	seqs := s.checkpointSeqs()
	for len(seqs) > s.opt.CheckpointRetain {
		os.RemoveAll(s.checkpointDir(seqs[0]))
		seqs = seqs[1:]
	}
	if len(seqs) == 0 {
		return
	}
	for len(s.segs) >= 2 && s.segs[1].firstSeq <= seqs[0]+1 {
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
	return s.recoverOn(eng, par.Workers(0))
}

// recoverOn is Recover with the WAL decoded on workers goroutines.
func (s *Store) recoverOn(eng *stream.Engine, workers int) (RecoveryInfo, error) {
	t0 := time.Now()
	var info RecoveryInfo

	seqs := s.checkpointSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		dir := s.checkpointDir(seqs[i])
		man, err := validateCheckpoint(dir, seqs[i])
		if err != nil {
			// A checkpoint that fails integrity is dead weight; fall back
			// to the previous one (the WAL still covers the gap: pruning
			// keeps every segment the oldest kept checkpoint needs).
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
		s.mu.Lock()
		s.ckptBytes = man.StateBytes
		s.mu.Unlock()
		break
	}

	if err := s.replayWAL(eng, workers, &info); err != nil {
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
	s.sinceCkpt = info.replayedBytes
	s.publishLocked()
	s.mu.Unlock()
	return info, nil
}

// replayWAL feeds every segment's surviving records into the engine,
// skipping what the checkpoint already covers.
func (s *Store) replayWAL(eng *stream.Engine, workers int, info *RecoveryInfo) error {
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()

	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].firstSeq <= eng.Seq()+1 {
			// The restored checkpoint covers this sealed segment whole; it
			// is kept only for a fallback to an older checkpoint.
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("durable: replay %s: %w", filepath.Base(seg.path), err)
		}
		err = s.replaySegment(eng, seg, f, i == len(segs)-1, workers, info)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayRecord is one WAL record on its way through the replay pipeline:
// the reader frames and checks it into payload, a worker decodes it into
// batch, and the fold applies it.
type replayRecord struct {
	startSeq int64
	count    int
	payload  []byte // owned by the record slot, reused for its next record
	err      error  // readRecord's error; io.EOF at a clean end

	rd    bytes.Reader
	batch *stream.Batch // nil when the record was not decoded
	n     int           // events decoded
	derr  error         // the decode error
}

func (r *replayRecord) release() {
	if r.batch != nil {
		r.batch.Release()
		r.batch = nil
	}
}

// errTruncate ends a replay whose segment tail is to be truncated.
var errTruncate = errors.New("durable: truncate the wal tail")

// replaySegment replays the segment seg read from r. A reader goroutine
// frames and checks each record, workers decode the next records while the
// engine applies this one, and the checks and the Apply run on the caller
// in record order (par.Ordered), exactly as a sequential loop makes them.
func (s *Store) replaySegment(eng *stream.Engine, seg segment, r io.Reader, last bool, workers int, info *RecoveryInfo) error {
	name := filepath.Base(seg.path)
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return fmt.Errorf("durable: segment %s: %w", name, readError(err))
		}
		if last && err != nil {
			// The segment file was created but the magic never reached
			// disk: an empty shell from a crash at open. Discard it.
			return s.truncateTail(seg, 0, info)
		}
		return fmt.Errorf("durable: segment %s: bad magic", name)
	}

	base := eng.Seq() // records ending at or before it are skipped, not decoded
	records := info.ReplayedRecords + info.SkippedRecords
	offset, truncAt := int64(len(walMagic)), int64(-1)
	st, err := par.Ordered(workers,
		func(rec *replayRecord) bool {
			var payload []byte
			rec.startSeq, rec.count, payload, rec.err = readRecord(br, rec.payload)
			if rec.err != nil {
				return false
			}
			rec.payload = payload
			return true
		},
		func(_ *struct{}, rec *replayRecord) {
			if rec.err != nil || rec.startSeq+int64(rec.count)-1 <= base {
				return
			}
			rec.batch = stream.GetBatch()
			rec.rd.Reset(rec.payload)
			rec.n, rec.derr = rec.batch.DecodeJSONLInto(&rec.rd)
		},
		func(rec *replayRecord) error {
			defer rec.release()
			if rec.err == io.EOF {
				return nil
			}
			if rec.err != nil {
				if last && !errors.Is(rec.err, errWALRead) {
					truncAt = offset
					return errTruncate
				}
				return fmt.Errorf("durable: segment %s at offset %d: %w", name, offset, rec.err)
			}
			recBytes := int64(recHeaderSize + len(rec.payload))
			info.WALBytes += recBytes

			cur := eng.Seq()
			if rec.startSeq > cur+1 {
				return fmt.Errorf("durable: segment %s: wal gap (record seq %d, engine at %d)",
					name, rec.startSeq, cur)
			}
			skip := cur - rec.startSeq + 1 // events in this record the checkpoint already covers
			if skip >= int64(rec.count) {
				info.SkippedRecords++
				offset += recBytes
				return nil
			}

			if rec.derr != nil || rec.n != rec.count {
				if last {
					// The checksum matched, so this is not media corruption —
					// but a record that no longer decodes to its own framing
					// cannot be replayed. At the tail, treat like a torn write.
					truncAt = offset
					return errTruncate
				}
				derr := rec.derr
				if derr == nil {
					derr = fmt.Errorf("decoded %d events, header says %d", rec.n, rec.count)
				}
				return fmt.Errorf("durable: segment %s record at %d: %w", name, offset, derr)
			}
			if err := eng.Apply(rec.batch.Events[skip:]); err != nil {
				// Live ingest surfaced this as a 400 and carried on with the
				// partial prefix applied; replay mirrors that exactly.
				info.ApplyErrors++
			}
			info.ReplayedRecords++
			info.ReplayedEvents += int64(rec.count) - skip
			info.replayedBytes += recBytes
			offset += recBytes
			return nil
		})
	st.Items = int(info.ReplayedRecords + info.SkippedRecords - records)
	info.Replay.Add(st)
	if truncAt >= 0 {
		// The pipeline has returned, so nothing reads the file any more.
		return s.truncateTail(seg, truncAt, info)
	}
	return err
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
// state file's length and checksum, and returns the manifest.
func validateCheckpoint(dir string, seq int64) (manifest, error) {
	var man manifest
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, err
	}
	if man.Seq != seq {
		return man, fmt.Errorf("manifest seq %d, directory says %d", man.Seq, seq)
	}
	f, err := os.Open(filepath.Join(dir, "state.bin"))
	if err != nil {
		return man, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return man, err
	}
	if n != man.StateBytes {
		return man, fmt.Errorf("state.bin is %d bytes, manifest says %d", n, man.StateBytes)
	}
	if h.Sum32() != man.StateCRC32 {
		return man, fmt.Errorf("state.bin checksum mismatch")
	}
	return man, nil
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
