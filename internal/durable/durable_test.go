package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/stream"
)

var testStart = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)

func testConfig() stream.Config {
	return stream.Config{Observation: model.Window{Start: testStart, End: testStart.AddDate(1, 0, 0)}}
}

func newEngine(t *testing.T) *stream.Engine {
	t.Helper()
	eng, err := stream.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testBatches builds n deterministic event batches: a machine roster
// first, then crash tickets marching through the observation window.
func testBatches(n int) [][]stream.Event {
	var batches [][]stream.Event
	var roster []stream.Event
	for i := 0; i < 8; i++ {
		kind, prefix := model.PM, "PM"
		if i%2 == 1 {
			kind, prefix = model.VM, "VM"
		}
		roster = append(roster, stream.Event{Type: "machine", Machine: &model.Machine{
			ID:      model.MachineID(fmt.Sprintf("S1-%s-%04d", prefix, i)),
			Kind:    kind,
			System:  1,
			Created: testStart.AddDate(-1, 0, 0),
		}})
	}
	batches = append(batches, roster)
	for b := 1; b < n; b++ {
		var evs []stream.Event
		for j := 0; j < 5; j++ {
			i := (b*5 + j) % 8
			prefix := "PM"
			if i%2 == 1 {
				prefix = "VM"
			}
			opened := testStart.Add(time.Duration(b*24+j) * time.Hour)
			closed := opened.Add(3 * time.Hour)
			evs = append(evs, stream.Event{Type: "ticket", Ticket: &model.Ticket{
				ID:       fmt.Sprintf("T-%d-%d", b, j),
				ServerID: model.MachineID(fmt.Sprintf("S1-%s-%04d", prefix, i)),
				System:   1,
				Opened:   opened,
				Closed:   closed,
				IsCrash:  j%2 == 0,
				Class:    model.FailureClass(1 + j%3),
			}})
		}
		batches = append(batches, evs)
	}
	return batches
}

// runWithStore applies the batches through an engine journaled into dir,
// optionally checkpointing after batch checkpointAt (-1 = never), and
// abandons the store without closing — the unit-level crash: everything a
// caller saw succeed is on disk, nothing graceful happened after.
func runWithStore(t *testing.T, dir string, batches [][]stream.Event, checkpointAt int) *stream.Engine {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	for i, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == checkpointAt {
			if _, err := st.Checkpoint(eng); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eng
}

// recoverDir opens dir and recovers into a fresh engine.
func recoverDir(t *testing.T, dir string) (*stream.Engine, RecoveryInfo) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	info, err := st.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, info
}

// TestRecoverEmptyDir: a fresh data directory recovers to a pristine
// engine with zeroed recovery info.
func TestRecoverEmptyDir(t *testing.T) {
	eng, info := recoverDir(t, t.TempDir())
	if info != (RecoveryInfo{Duration: info.Duration, DurationMS: info.DurationMS}) {
		t.Errorf("non-zero recovery info on empty dir: %+v", info)
	}
	if eng.Seq() != 0 {
		t.Errorf("fresh engine at seq %d", eng.Seq())
	}
}

// TestCrashRecoveryEquivalence is the unit-level headline invariant:
// abandon the store at assorted points — before any checkpoint, right
// after one, and with a WAL tail past one — and recovery must rebuild an
// engine whose state image equals an uninterrupted run's, byte for byte.
func TestCrashRecoveryEquivalence(t *testing.T) {
	batches := testBatches(40)
	ref := newEngine(t)
	for _, b := range batches {
		if err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(t, ref)

	for _, ckptAt := range []int{-1, 0, 20, 39} {
		dir := t.TempDir()
		crashed := runWithStore(t, dir, batches, ckptAt)
		if got := fingerprint(t, crashed); got != want {
			t.Fatalf("ckpt@%d: journaled run diverges before crash", ckptAt)
		}
		eng, info := recoverDir(t, dir)
		if got := fingerprint(t, eng); got != want {
			t.Errorf("ckpt@%d: recovered snapshot diverges (info %+v)", ckptAt, info)
		}
		if eng.Seq() != ref.Seq() {
			t.Errorf("ckpt@%d: recovered seq %d, want %d", ckptAt, eng.Seq(), ref.Seq())
		}
		if ckptAt >= 0 && info.CheckpointSeq == 0 {
			t.Errorf("ckpt@%d: recovery used no checkpoint", ckptAt)
		}
	}
}

// TestRecoverySkipsCheckpointedRecords: records at or before the
// checkpoint replay as skips, the tail as applies.
func TestRecoverySkipsCheckpointedRecords(t *testing.T) {
	batches := testBatches(20)
	dir := t.TempDir()
	runWithStore(t, dir, batches, 9)
	_, info := recoverDir(t, dir)
	if info.SkippedRecords == 0 {
		t.Error("no records skipped despite a covering checkpoint")
	}
	if info.ReplayedRecords == 0 {
		t.Error("no records replayed despite a WAL tail past the checkpoint")
	}
	if info.ReplayedEvents != 50 { // batches 10..19, 5 events each
		t.Errorf("replayed %d events, want 50", info.ReplayedEvents)
	}
}

// TestCheckpointPrunesWAL: after a checkpoint, fully covered sealed
// segments are deleted; recovery afterwards still lands on the reference
// state.
func TestCheckpointPrunesWAL(t *testing.T) {
	batches := testBatches(60)
	dir := t.TempDir()

	st, err := Open(dir, Options{SegmentBytes: 4 << 10}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	for _, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	before := countGlob(t, dir, "wal-*.log")
	if before < 3 {
		t.Fatalf("rotation produced only %d segments; test needs several", before)
	}
	if _, err := st.Checkpoint(eng); err != nil {
		t.Fatal(err)
	}
	after := countGlob(t, dir, "wal-*.log")
	if after >= before {
		t.Errorf("checkpoint pruned nothing (%d -> %d segments)", before, after)
	}

	rec, _ := recoverDir(t, dir)
	if fingerprint(t, rec) != fingerprint(t, eng) {
		t.Error("recovery after pruning diverges")
	}
}

// TestCheckpointRetention: only checkpointRetain checkpoint directories
// survive repeated checkpointing.
func TestCheckpointRetention(t *testing.T) {
	batches := testBatches(10)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	for _, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Checkpoint(eng); err != nil {
			t.Fatal(err)
		}
	}
	if n := countGlob(t, dir, "checkpoint-*"); n != checkpointRetain {
		t.Errorf("%d checkpoints on disk, want %d", n, checkpointRetain)
	}
}

// TestShutdownCheckpointZeroReplay: a final checkpoint before shutdown
// means the next boot replays nothing from the WAL.
func TestShutdownCheckpointZeroReplay(t *testing.T) {
	batches := testBatches(15)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	for _, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(eng); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, info := recoverDir(t, dir)
	if info.ReplayedRecords != 0 || info.ReplayedEvents != 0 {
		t.Errorf("replayed %d records / %d events after a clean shutdown checkpoint",
			info.ReplayedRecords, info.ReplayedEvents)
	}
	if fingerprint(t, rec) != fingerprint(t, eng) {
		t.Error("post-shutdown recovery diverges")
	}
}

// TestTornTailEveryOffset truncates the final WAL record at every byte
// offset: recovery must always succeed, dropping exactly the torn record
// and landing on the state of the stream without its final batch.
func TestTornTailEveryOffset(t *testing.T) {
	batches := testBatches(6)
	master := t.TempDir()
	runWithStore(t, master, batches, -1)

	// Reference: everything but the last batch.
	refShort := newEngine(t)
	for _, b := range batches[:len(batches)-1] {
		if err := refShort.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	wantShort := fingerprint(t, refShort)

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, have %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lastStart := recordOffsets(t, raw)
	base := filepath.Base(segs[0])

	for cut := lastStart; cut < int64(len(raw)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, base), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		eng, info := recoverDir(t, dir)
		if cut == lastStart {
			if info.TruncatedBytes != 0 {
				t.Errorf("cut %d: clean boundary reported %d truncated bytes", cut, info.TruncatedBytes)
			}
		} else if info.TruncatedBytes != cut-lastStart {
			t.Errorf("cut %d: truncated %d bytes, want %d", cut, info.TruncatedBytes, cut-lastStart)
		}
		if got := fingerprint(t, eng); got != wantShort {
			t.Fatalf("cut %d: recovered state diverges from stream minus final batch", cut)
		}
	}
}

// recordOffsets walks raw's records and returns the offset of the final
// record's first byte.
func recordOffsets(t *testing.T, raw []byte) int64 {
	t.Helper()
	r := bytes.NewReader(raw[len(walMagic):])
	offset := int64(len(walMagic))
	last := offset
	for {
		_, _, payload, err := readRecord(r, nil)
		if err != nil {
			break
		}
		last = offset
		offset += int64(recHeaderSize + len(payload))
	}
	return last
}

// TestCorruptionInSealedSegmentRefused: a flipped byte anywhere but the
// final segment's tail is corruption, not a torn write — recovery must
// refuse rather than silently drop records.
func TestCorruptionInSealedSegmentRefused(t *testing.T) {
	batches := testBatches(60)
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	for _, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("need ≥2 segments, have %v", segs)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Recover(newEngine(t)); err == nil {
		t.Fatal("recovery accepted corruption in a sealed segment")
	}
}

// TestInvalidCheckpointFallsBack: a checkpoint whose state file is
// damaged is skipped in favor of the previous one, and the WAL tail
// still brings the engine to the reference state.
func TestInvalidCheckpointFallsBack(t *testing.T) {
	batches := testBatches(30)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	var ckpts []int64
	for i, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == 10 || i == 20 {
			seq, err := st.Checkpoint(eng)
			if err != nil {
				t.Fatal(err)
			}
			ckpts = append(ckpts, seq)
		}
	}
	// Damage the newest checkpoint's state file.
	state := filepath.Join(dir, fmt.Sprintf("checkpoint-%016x", ckpts[1]), "state.bin")
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x55
	if err := os.WriteFile(state, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, info := recoverDir(t, dir)
	if info.CheckpointSeq != ckpts[0] {
		t.Errorf("recovered from checkpoint %d, want fallback to %d", info.CheckpointSeq, ckpts[0])
	}
	if fingerprint(t, rec) != fingerprint(t, eng) {
		t.Error("fallback recovery diverges")
	}
}

// TestRecoveryIdempotent: recovering twice from the same directory (crash
// during replay, then boot again) yields the same state — replay never
// appends to the journal or mutates surviving records.
func TestRecoveryIdempotent(t *testing.T) {
	batches := testBatches(25)
	dir := t.TempDir()
	runWithStore(t, dir, batches, 12)

	a, _ := recoverDir(t, dir)
	b, _ := recoverDir(t, dir)
	if fingerprint(t, a) != fingerprint(t, b) {
		t.Error("back-to-back recoveries diverge")
	}
}

func countGlob(t *testing.T, dir, pattern string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestRecordRoundTrip pins the frame codec: encode, decode, compare.
func TestRecordRoundTrip(t *testing.T) {
	payload := []byte(`{"type":"advance","time":"2012-07-02T00:00:00Z"}` + "\n")
	frame := appendRecord(nil, 42, 1, payload)
	seq, count, got, err := readRecord(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || count != 1 || !bytes.Equal(got, payload) {
		t.Errorf("round trip mangled record: seq=%d count=%d", seq, count)
	}
	if !reflect.DeepEqual(frame, appendRecord(nil, 42, 1, payload)) {
		t.Error("encoding is not deterministic")
	}
}

// TestIdleCheckpointWritesNothing: a checkpoint of an engine still at the
// newest checkpoint's sequence neither encodes an image (no lock hold is
// observed) nor touches the directory.
func TestIdleCheckpointWritesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Observer = obs.NewObserver("idle-checkpoint")
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(st)
	holds := func() float64 { return cfg.Observer.Metrics().Snapshot()["stream.state_lock_ms.count"] }

	if seq, err := st.Checkpoint(eng); err != nil || seq != 0 || holds() != 0 {
		t.Fatalf("checkpoint of an empty engine: seq %d, err %v, %v lock holds", seq, err, holds())
	}
	for _, b := range testBatches(5) {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := st.Checkpoint(eng)
	if err != nil || seq != eng.Seq() || holds() != 1 {
		t.Fatalf("first checkpoint: seq %d, err %v, %v lock holds", seq, err, holds())
	}
	before, err := readTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := os.Stat(st.checkpointDir(seq))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if again, err := st.Checkpoint(eng); err != nil || again != seq {
			t.Fatalf("idle checkpoint %d: seq %d, err %v", i, again, err)
		}
	}
	if holds() != 1 {
		t.Errorf("idle checkpoints encoded %v images, want none", holds()-1)
	}
	after, err := readTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Error("idle checkpoints changed the data directory")
	}
	if again, err := os.Stat(st.checkpointDir(seq)); err != nil || !again.ModTime().Equal(stat.ModTime()) {
		t.Errorf("idle checkpoints rewrote the checkpoint directory (%v)", err)
	}
}

// TestSealedSignalCoalesces: Sealed holds no token before a segment seals,
// one after, and still one after several seals nobody received.
func TestSealedSignalCoalesces(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	eng.SetJournal(st)
	pending := func() int {
		n := 0
		for {
			select {
			case <-st.Sealed():
				n++
			default:
				return n
			}
		}
	}
	batches := testBatches(60)
	if err := eng.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	if n := pending(); n != 0 {
		t.Fatalf("%d tokens before any seal", n)
	}
	for _, b := range batches[1:] {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if segs := countGlob(t, st.dir, "wal-*.log"); segs < 3 {
		t.Fatalf("only %d segments; the test needs several seals", segs)
	}
	if n := pending(); n != 1 {
		t.Errorf("%d tokens after several seals, want 1", n)
	}
}

// sealedCheckpoints runs the daemon's checkpoint loop in step with
// ingest: the batches go through an engine journaled into a store with
// segBytes segments, a checkpoint is taken whenever Sealed holds a token,
// and after each batch check (when non-nil) is called. It returns the
// engine, the store, and for every checkpoint its sequence, its image size
// and the WAL bytes appended before it.
func sealedCheckpoints(t *testing.T, dir string, segBytes int64, batches [][]stream.Event, check func(eng *stream.Engine, st *Store)) (eng *stream.Engine, st *Store, seqs, imgs, walAt []int64) {
	t.Helper()
	st, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	eng = newEngine(t)
	eng.SetJournal(st)
	for _, b := range batches {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
		select {
		case <-st.Sealed():
			seq, err := st.Checkpoint(eng)
			if err != nil {
				t.Fatal(err)
			}
			seqs, imgs, walAt = append(seqs, seq), append(imgs, st.ckptBytes), append(walAt, st.walBytes)
		default:
		}
		if check != nil {
			check(eng, st)
		}
	}
	if len(seqs) < 3 {
		t.Fatalf("%d seal-triggered checkpoints; the test needs several", len(seqs))
	}
	if imgs[0] <= segBytes {
		t.Fatalf("a %d-byte image fits a %d-byte segment; the test needs it larger", imgs[0], segBytes)
	}
	return eng, st, seqs, imgs, walAt
}

// TestSealedCheckpointBoundsReplay: a seal triggers a checkpoint only
// once the WAL past the newest checkpoint has grown to that checkpoint's
// image size, so checkpoints write no more bytes than the WAL they follow,
// and a crash at any point recovers the newest checkpoint plus at most an
// image's worth of WAL and a segment, landing byte for byte on the
// uninterrupted state.
func TestSealedCheckpointBoundsReplay(t *testing.T) {
	const segBytes = 2 << 10
	dir := t.TempDir()
	batches, crashes := 0, 0
	_, st, seqs, imgs, walAt := sealedCheckpoints(t, dir, segBytes, testBatches(300), func(eng *stream.Engine, st *Store) {
		if batches++; batches%7 != 0 {
			return
		}
		crashes++
		rec, info := recoverDir(t, dir)
		if fingerprint(t, rec) != fingerprint(t, eng) {
			t.Fatalf("at seq %d: recovered state differs from the uninterrupted run", eng.Seq())
		}
		if info.CheckpointSeq != st.CheckpointSeq() {
			t.Errorf("at seq %d: recovered from checkpoint %d, want the newest, %d", eng.Seq(), info.CheckpointSeq, st.CheckpointSeq())
		}
		if limit := st.ckptBytes + 2*segBytes; info.WALBytes > limit {
			t.Errorf("at seq %d: recovery read %d WAL bytes, want at most %d", eng.Seq(), info.WALBytes, limit)
		}
	})
	if crashes < 30 {
		t.Fatalf("%d crash points; the test needs many", crashes)
	}
	for i := 1; i < len(seqs); i++ {
		if wal := walAt[i] - walAt[i-1]; wal < imgs[i-1] {
			t.Errorf("checkpoint %d followed %d WAL bytes, fewer than the previous image's %d", i, wal, imgs[i-1])
		}
	}
	if seals := st.walBytes / segBytes; int64(len(seqs)) > seals/2 {
		t.Errorf("%d checkpoints for about %d seals; a seal alone should not trigger one", len(seqs), seals)
	}
}

// TestSealedCheckpointFallsBack: with checkpoints taken on seals, the WAL
// keeps every segment past the older of the two retained checkpoints, so
// a recovery that finds the newest one damaged restores the previous one
// and replays onto the same bytes.
func TestSealedCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	eng, _, seqs, _, _ := sealedCheckpoints(t, dir, 2<<10, testBatches(300), nil)
	newest, prev := seqs[len(seqs)-1], seqs[len(seqs)-2]
	state := filepath.Join(dir, fmt.Sprintf("checkpoint-%016x", newest), "state.bin")
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x55
	if err := os.WriteFile(state, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, info := recoverDir(t, dir)
	if info.CheckpointSeq != prev {
		t.Errorf("recovered from checkpoint %d, want fallback to %d", info.CheckpointSeq, prev)
	}
	if fingerprint(t, rec) != fingerprint(t, eng) {
		t.Error("fallback recovery differs from the uninterrupted run")
	}
}

// TestCheckpointDuringIngest checkpoints on every seal, from its own
// goroutine, while four others ingest through the group commit, as
// failscoped does. A crash then recovers the journaled engine byte for
// byte, whatever order the batches applied in.
func TestCheckpointDuringIngest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	eng.SetJournal(st)

	stop, done := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			case <-st.Sealed():
				if _, err := st.Checkpoint(eng); err != nil {
					t.Error(err)
				}
				n++
			}
		}
	}()
	batches := testBatches(120)
	if err := eng.Apply(batches[0]); err != nil { // the roster first
		t.Fatal(err)
	}
	work := make(chan []stream.Event)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				if err := eng.Apply(b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for _, b := range batches[1:] {
		work <- b
	}
	close(work)
	wg.Wait()
	close(stop)
	if n := <-done; n == 0 {
		t.Fatal("no checkpoint ran during ingest")
	}

	rec, info := recoverDir(t, dir)
	if info.CheckpointSeq == 0 {
		t.Error("recovery restored no checkpoint")
	}
	if fingerprint(t, rec) != fingerprint(t, eng) {
		t.Error("recovered state differs from the journaled engine")
	}
}
