package durable

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"failscope/internal/obs"
	"failscope/internal/stream"
)

// wireRewrites turn a canonical JSONL body (stream.EncodeJSONL) into the
// other shapes a client may post and the wire decoder accepts. A WAL
// journaled from such a body keeps the body as posted.
var wireRewrites = map[string]func(body []byte) []byte{
	"canonical": func(body []byte) []byte { return body },
	"blank lines": func(body []byte) []byte {
		return append([]byte("\n\r\n"), bytes.ReplaceAll(body, []byte("\n"), []byte("\n\n"))...)
	},
	"crlf":           func(body []byte) []byte { return bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n")) },
	"reordered keys": reorderKeys,
	// A surrogate-pair escape is one the scanner leaves to encoding/json.
	"escape fallback": func(body []byte) []byte {
		return bytes.ReplaceAll(body, []byte(`"description":"`), []byte(`"description":"\ud83d\ude00`))
	},
	"no final newline": func(body []byte) []byte { return bytes.TrimSuffix(body, []byte("\n")) },
}

// reorderKeys writes each line's top-level keys in reverse order, padded
// with whitespace.
func reorderKeys(body []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			panic(err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		out.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				out.WriteString(" ,\t")
			}
			out.WriteString(`"` + k + `" : `)
			out.Write(obj[k])
		}
		out.WriteString(" } \n")
	}
	return out.Bytes()
}

// wireBodies is a slice of the small study chosen to carry every event
// type: the machine roster, then batches with tickets, incidents,
// placements, power events and samples.
func wireBodies(t testing.TB) [][]byte {
	t.Helper()
	batches, err := studyBatches()
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, i := range []int{0, 1, 25, 50, 175, 225} {
		var body bytes.Buffer
		if err := stream.EncodeJSONL(&body, batches[i]); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body.Bytes())
	}
	return bodies
}

func newStudyEngine(t testing.TB) *stream.Engine {
	t.Helper()
	eng, err := stream.NewEngine(studyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// decodeBody decodes a wire body into a pooled batch, as the POST
// handler does.
func decodeBody(t testing.TB, body []byte) *stream.Batch {
	t.Helper()
	b := stream.GetBatch()
	if _, err := b.DecodeJSONLInto(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	return b
}

// recoverStudy recovers dir into a fresh study engine.
func recoverStudy(t testing.TB, dir string) *stream.Engine {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := newStudyEngine(t)
	if _, err := st.Recover(eng); err != nil {
		t.Fatal(err)
	}
	return eng
}

// walPayloads returns the payloads of the records in dir's first segment.
func walPayloads(t testing.TB, dir string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw[len(walMagic):])
	var payloads [][]byte
	for {
		_, _, payload, err := readRecord(r, nil)
		if err == io.EOF {
			return payloads
		}
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
}

// TestWireBodiesRecover posts the study slice through the wire path in
// every body shape, crashes, and requires the recovery to match an
// engine that applied the same batches without a journal, byte for byte
// in WriteState. Each WAL record holds its body as posted.
func TestWireBodiesRecover(t *testing.T) {
	bodies := wireBodies(t)
	for name, rewrite := range wireRewrites {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng, ref := newStudyEngine(t), newStudyEngine(t)
			eng.SetJournal(st)
			_, fallback0 := stream.DecodeStats()
			var posted [][]byte
			for _, canonical := range bodies {
				body := rewrite(canonical)
				b := decodeBody(t, body)
				if err := ref.Apply(b.Events); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.ApplyBatchTimed(b); err != nil {
					t.Fatal(err)
				}
				b.Release()
				posted = append(posted, body)
			}
			if _, fallback1 := stream.DecodeStats(); name == "escape fallback" && fallback1 == fallback0 {
				t.Error("no line took the encoding/json fallback")
			}
			// Abandon the store unclosed: the crash.
			if got := walPayloads(t, dir); !reflect.DeepEqual(got, posted) {
				t.Errorf("WAL holds %d records, not the %d bodies as posted", len(got), len(posted))
			}
			want := fingerprint(t, ref)
			if fingerprint(t, eng) != want {
				t.Error("the journaled engine differs from the plain one")
			}
			if fingerprint(t, recoverStudy(t, dir)) != want {
				t.Error("recovered state differs from the uninterrupted engine")
			}
		})
	}
}

// gatedJournal holds the first append until release is closed, so
// batches posted meanwhile queue behind the group leader.
type gatedJournal struct {
	*Store
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedJournal) hold() {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

func (g *gatedJournal) Append(startSeq int64, events []stream.Event) error {
	g.hold()
	return g.Store.Append(startSeq, events)
}

func (g *gatedJournal) AppendWire(startSeq int64, count int, jsonl []byte) error {
	g.hold()
	return g.Store.AppendWire(startSeq, count, jsonl)
}

// TestWireCommitGroupRecovers posts one body per rewrite concurrently
// while the group leader's append is held, so they commit as one group,
// each journaled from its own body; recovery must rebuild the live
// engine byte for byte. A run whose followers miss the group is retried.
func TestWireCommitGroupRecovers(t *testing.T) {
	bodies := wireBodies(t)
	names := make([]string, 0, len(wireRewrites))
	for name := range wireRewrites {
		names = append(names, name)
	}
	sort.Strings(names)
	for attempt := 0; attempt < 20; attempt++ {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := studyConfig()
		o := obs.NewObserver("wire-group")
		cfg.Observer = o
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := &gatedJournal{Store: st, entered: make(chan struct{}), release: make(chan struct{})}
		eng.SetJournal(g)

		// The roster leads; each follower posts a later batch, rewritten.
		var wg sync.WaitGroup
		post := func(body []byte) {
			defer wg.Done()
			b := decodeBody(t, body)
			defer b.Release()
			if _, err := eng.ApplyBatchTimed(b); err != nil {
				t.Error(err)
			}
		}
		wg.Add(1)
		go post(bodies[0])
		<-g.entered
		started := make(chan struct{}, len(names))
		posted := [][]byte{bodies[0]}
		for i, name := range names {
			wg.Add(1)
			body := wireRewrites[name](bodies[1+i%(len(bodies)-1)])
			posted = append(posted, body)
			go func() {
				started <- struct{}{}
				post(body)
			}()
		}
		for range names {
			<-started
		}
		close(g.release)
		wg.Wait()

		m := o.Metrics().Snapshot()
		if m["stream.apply_groups"] >= m["stream.apply_grouped_batches"] {
			continue // every batch committed alone; nothing grouped
		}
		// Followers commit in arrival order; compare the records as a set.
		got := walPayloads(t, dir)
		for _, s := range [][][]byte{got, posted} {
			sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 })
		}
		if !reflect.DeepEqual(got, posted) {
			t.Errorf("WAL holds %d records, not the %d bodies as posted", len(got), len(posted))
		}
		if fingerprint(t, recoverStudy(t, dir)) != fingerprint(t, eng) {
			t.Fatal("recovered state differs from the live engine")
		}
		return
	}
	t.Fatal("no attempt formed a multi-batch commit group")
}

// FuzzWireJournal: any body the wire decoder accepts, journaled from its
// wire bytes and recovered, gives the WriteState bytes of a fresh engine
// that applied the decoded events.
func FuzzWireJournal(f *testing.F) {
	for _, body := range wireBodies(f)[:2] {
		lines := bytes.SplitAfter(body, []byte("\n"))
		small := bytes.Join(lines[:min(len(lines), 6)], nil)
		for _, rewrite := range wireRewrites {
			f.Add(rewrite(small))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b := stream.GetBatch()
		defer b.Release()
		if _, err := b.DecodeJSONLInto(bytes.NewReader(body)); err != nil {
			return
		}
		ref := newStudyEngine(t)
		refErr := ref.Apply(b.Events) // a rejected batch applies its prefix, as a 400 does

		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := newStudyEngine(t)
		eng.SetJournal(st)
		if _, err := eng.ApplyBatchTimed(b); (err == nil) != (refErr == nil) {
			t.Fatalf("journaled apply error %v, plain apply error %v", err, refErr)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, recoverStudy(t, dir)) != fingerprint(t, ref) {
			t.Fatal("recovered state differs from a fresh engine's Apply")
		}
	})
}
