package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/iotest"

	"failscope/internal/par"
	"failscope/internal/stream"
)

// fingerprint is the engine state the recovery invariant protects: its
// sequence and its checkpoint image, which holds every statistic-bearing
// field and is deterministic, so equal states give equal bytes.
func fingerprint(t testing.TB, eng *stream.Engine) string {
	t.Helper()
	var img bytes.Buffer
	seq, err := eng.WriteState(&img)
	if err != nil {
		t.Fatal(err)
	}
	if seq != eng.Seq() {
		t.Fatalf("image at seq %d, engine at %d", seq, eng.Seq())
	}
	return fmt.Sprintf("seq %d\n%x", seq, img.Bytes())
}

// recoverAt opens dir and recovers into a fresh engine on workers
// goroutines.
func recoverAt(t testing.TB, dir string, workers int) (*stream.Engine, RecoveryInfo, error) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	info, err := st.recoverOn(eng, workers)
	return eng, info, err
}

// sansTiming drops what legitimately differs between two recoveries of
// one directory: their durations and the pipeline's worker accounting.
func (info RecoveryInfo) sansTiming() RecoveryInfo {
	info.Duration, info.DurationMS, info.Replay = 0, 0, par.Stats{}
	return info
}

// TestRecoverWorkersEquivalence: across several segments, with and
// without a checkpoint, a recovery at 1, 2 or 4 workers rebuilds the
// uninterrupted engine byte for byte and reports the same recovery.
func TestRecoverWorkersEquivalence(t *testing.T) {
	batches := testBatches(60)
	ref := newEngine(t)
	for _, b := range batches {
		if err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(t, ref)
	for _, ckptAt := range []int{-1, 25} {
		dir := journalSegments(t, batches, ckptAt)
		var first RecoveryInfo
		for _, workers := range []int{1, 2, 4} {
			eng, info, err := recoverAt(t, dir, workers)
			if err != nil {
				t.Fatalf("ckpt@%d, %d workers: %v", ckptAt, workers, err)
			}
			if fingerprint(t, eng) != want {
				t.Errorf("ckpt@%d, %d workers: recovered state differs from the uninterrupted run", ckptAt, workers)
			}
			if info.Replay.Workers != workers || info.Replay.Items == 0 {
				t.Errorf("ckpt@%d, %d workers: replay stats %+v", ckptAt, workers, info.Replay)
			}
			if workers == 1 {
				first = info.sansTiming()
			} else if info.sansTiming() != first {
				t.Errorf("ckpt@%d: %d workers recovered %+v, 1 worker %+v", ckptAt, workers, info.sansTiming(), first)
			}
		}
		if ckptAt >= 0 && (first.CheckpointSeq == 0 || first.SkippedRecords == 0) {
			t.Errorf("ckpt@%d: recovery %+v skipped nothing", ckptAt, first)
		}
	}
}

// journalSegments journals batches into a fresh directory in 2 KiB
// segments, checkpointing after batch checkpointAt (-1 = never), and
// closes the store.
func journalSegments(t testing.TB, batches [][]stream.Event, checkpointAt int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	for i, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == checkpointAt {
			if _, err := st.Checkpoint(eng); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReadRecordIOError: a failing reader is an I/O error, not a torn
// record, whether it fails in the header or in the payload; running out of
// bytes there stays torn.
func TestReadRecordIOError(t *testing.T) {
	frame := appendRecord(nil, 7, 1, []byte(`{"type":"advance","time":"2012-07-02T00:00:00Z"}`+"\n"))
	for _, cut := range []int{0, 5, recHeaderSize, recHeaderSize + 9} {
		_, _, _, err := readRecord(io.MultiReader(bytes.NewReader(frame[:cut]), iotest.ErrReader(syscall.EIO)), nil)
		if !errors.Is(err, errWALRead) || !errors.Is(err, syscall.EIO) {
			t.Errorf("read fails after %d bytes: err = %v, want a wal read error wrapping EIO", cut, err)
		}
		if cut == 0 {
			continue
		}
		if _, _, _, err := readRecord(bytes.NewReader(frame[:cut]), nil); err != errTornRecord {
			t.Errorf("stream ends after %d bytes: err = %v, want %v", cut, err, errTornRecord)
		}
	}
}

// TestReplayIOErrorRefused: an I/O error inside the last segment refuses
// recovery, naming the error, and leaves the segment's bytes alone — where
// the same bytes simply ending would be truncated as a torn tail.
func TestReplayIOErrorRefused(t *testing.T) {
	dir := t.TempDir()
	runWithStore(t, dir, testBatches(6), -1)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, have %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lastStart := recordOffsets(t, raw)
	seg := segment{firstSeq: 1, path: segs[0]}
	for _, cut := range []int64{4, lastStart, lastStart + 3, lastStart + recHeaderSize + 10} {
		for _, workers := range []int{1, 4} {
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var info RecoveryInfo
			r := io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(syscall.EIO))
			err = st.replaySegment(newEngine(t), seg, r, true, workers, &info)
			if !errors.Is(err, syscall.EIO) {
				t.Errorf("cut %d, %d workers: err = %v, want EIO", cut, workers, err)
			}
			now, rerr := os.ReadFile(segs[0])
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(now, raw) || info.TruncatedBytes != 0 {
				t.Fatalf("cut %d, %d workers: segment changed to %d bytes (truncated %d)", cut, workers, len(now), info.TruncatedBytes)
			}
		}
	}
}

// walFixture is a WAL of four 8 KiB segments, the first of which holds a
// checkpoint's sequence, and that checkpoint: journaled once for the fuzz
// target.
var walFixture = sync.OnceValues(func() (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "walfixture")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := Open(dir, Options{SegmentBytes: 8 << 10})
	if err != nil {
		return nil, err
	}
	eng, err := stream.NewEngine(testConfig())
	if err != nil {
		return nil, err
	}
	eng.SetJournal(st)
	for i, b := range testBatches(40) {
		if err := eng.Apply(b); err != nil {
			return nil, err
		}
		if i == 15 {
			if _, err := st.Checkpoint(eng); err != nil {
				return nil, err
			}
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return readTree(dir)
})

// readTree reads every file under dir, by path relative to dir.
func readTree(dir string) (map[string][]byte, error) {
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	return files, err
}

// FuzzRecoverWAL damages a WAL of several segments past a checkpoint — a
// flipped byte, a cut tail and appended bytes in one segment, sealed or
// last, and optionally a flipped byte in the checkpoint — and recovers it
// at 1 and at 4 workers. The two recoveries must agree on everything: the
// recovery info but its durations, the error text, the segment files left
// after truncation, and the engine's sequence and snapshot.
func FuzzRecoverWAL(f *testing.F) {
	// seg counts back from the last segment: 0 is the last, 3 the one
	// the checkpoint falls in.
	f.Add(uint8(0), uint32(0), byte(0), uint16(0), []byte(nil), uint16(0))            // undamaged
	f.Add(uint8(0), uint32(0), byte(0), uint16(30), []byte(nil), uint16(0))           // torn tail
	f.Add(uint8(0), uint32(0), byte(0), uint16(0), []byte("\x07\x00\x00"), uint16(0)) // bytes appended
	f.Add(uint8(0), uint32(4000), byte(0x40), uint16(0), []byte(nil), uint16(0))      // bad record in the last segment
	f.Add(uint8(1), uint32(500), byte(0xff), uint16(0), []byte(nil), uint16(0))       // bad record in a sealed segment
	f.Add(uint8(3), uint32(0), byte(0), uint16(100), []byte(nil), uint16(0))          // torn sealed segment
	f.Add(uint8(2), uint32(3), byte(0x01), uint16(0), []byte(nil), uint16(0))         // bad magic
	f.Add(uint8(0), uint32(0), byte(0), uint16(0), []byte(nil), uint16(777))          // damaged checkpoint
	fixture, err := walFixture()
	if err != nil {
		f.Fatal(err)
	}
	var segs []string
	for name := range fixture {
		if filepath.Ext(name) == ".log" {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	if len(segs) < 3 {
		f.Fatalf("fixture has segments %v, want several", segs)
	}

	f.Fuzz(func(t *testing.T, seg uint8, pos uint32, xor byte, cut uint16, extra []byte, ckptPos uint16) {
		damaged := segs[len(segs)-1-int(seg)%len(segs)] // 0 is the last segment
		type result struct {
			info               RecoveryInfo
			err, files, engine string
		}
		recoverCopy := func(workers int) result {
			dir := t.TempDir()
			for name, raw := range fixture {
				raw = append([]byte(nil), raw...)
				switch {
				case name == damaged:
					if len(raw) > 0 {
						raw[int(pos)%len(raw)] ^= xor
					}
					raw = append(raw[:len(raw)-int(cut)%(len(raw)+1)], extra...)
				case filepath.Base(name) == "state.bin" && ckptPos > 0:
					raw[int(ckptPos)%len(raw)] ^= 0x5a
				}
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			eng, info, err := recoverAt(t, dir, workers)
			files, terr := readTree(dir)
			if terr != nil {
				t.Fatal(terr)
			}
			return result{
				info:   info.sansTiming(),
				err:    strings.ReplaceAll(fmt.Sprint(err), dir, "DIR"),
				files:  fmt.Sprint(files),
				engine: fingerprint(t, eng),
			}
		}
		a, b := recoverCopy(1), recoverCopy(4)
		if a.info != b.info {
			t.Errorf("recovery info: 1 worker %+v, 4 workers %+v", a.info, b.info)
		}
		if a.err != b.err {
			t.Errorf("error: 1 worker %q, 4 workers %q", a.err, b.err)
		}
		if a.files != b.files {
			t.Errorf("files left differ between 1 and 4 workers")
		}
		if a.engine != b.engine {
			t.Errorf("engine state differs between 1 and 4 workers (error %q)", a.err)
		}
	})
}
