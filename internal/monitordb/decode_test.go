package monitordb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"failscope/internal/jsonl"
	"failscope/internal/model"
)

// canonicalDB builds a database exercising every record Encode writes:
// grid-cadence series long enough for cadence detection, irregular and
// duplicate samples, samples outside retention (dropped on write), power
// events and placements, under machine IDs the encoder must escape.
func canonicalDB() *DB {
	db := newDB()
	for m := 0; m < 12; m++ {
		id := model.MachineID(fmt.Sprintf("S%d-VM-%04d", m%5+1, m))
		if m == 11 {
			id = `vm "<&>" ✓`
		}
		for _, metric := range Metrics() {
			samples := []Sample{{Time: epoch.Add(-time.Hour), Value: 1}} // dropped
			for i := 0; i < 40+m; i++ {
				samples = append(samples, Sample{
					Time:  obsWin.Start.Add(time.Duration(i) * 7 * 24 * time.Hour),
					Value: float64(i*m) * 0.125,
				})
			}
			samples = append(samples,
				Sample{Time: obsWin.Start.Add(3*24*time.Hour + 17*time.Second), Value: 1e-7},
				Sample{Time: obsWin.Start, Value: -2.5}, // duplicate of slot 0
			)
			db.AddSeries(id, metric, samples)
		}
		db.AddPowerEvent(id, PowerEvent{Time: obsWin.Start.Add(time.Duration(m) * time.Hour), On: false})
		db.AddPowerEvent(id, PowerEvent{Time: obsWin.Start.Add(time.Duration(m)*time.Hour + 90*time.Minute + 250*time.Millisecond), On: true})
		for mo := 0; mo < 6; mo++ {
			db.SetPlacement(id, model.MachineID(fmt.Sprintf("box-%d", (m+mo/3)%4)), obsWin.Start.AddDate(0, mo, 5))
		}
	}
	return db
}

const monitorHeader = `{"kind":"header","epoch":"2011-07-01T00:00:00Z","retentionHours":17520}`

// trickyMonitorLines are records a canonical encoder never writes, each
// decoded after a header line; see trickyDatasetLines in internal/model.
var trickyMonitorLines = []string{
	` { "value" : 3.5 , "kind" : "sample" , "machine" : "a" , "metric" : 1 , "time" : "2012-08-05T00:00:00Z" } `,
	`{"kind":"sample","machine":"a","metric":null,"value":null,"time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","time":null}`,
	`{"kind":"power","machine":"a","time":"2012-08-05T00:00:00Z","on":null}`,
	`{"kind":"power","machine":"a","time":"2012-08-05T00:00:00Z","on":true,"on":false}`,
	`{"kind":"sample","machine":"a","machine":"b","metric":2,"time":"2012-08-05T00:00:00Z","time":"2012-08-06T00:00:00Z","value":1}`,
	`{"kind":"sample","machine":"a","time":null,"time":"2012-08-05T00:00:00Z"}`,
	`{"Kind":"sample","MACHINE":"a","time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","ſetric":2,"time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T02:00:00+02:00"}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00.000000001Z","value":-0}`,
	`{"kind":"placement","machine":"v\u00e9\/\"1","host":"h\\\t","time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"placement","machine":"v","host":"\ud83d\ude00","time":"2012-08-05T00:00:00Z"}`,
	"{\"kind\":\"placement\",\"machine\":\"v\",\"host\":\"bad \xff\",\"time\":\"2012-08-05T00:00:00Z\"}",
	`{"kind":"placement","machine":"v","host":"","time":"2012-08-05T00:00:00Z"}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z","value":5e-324,"extra":[{"x":[null,true,-1.5e3]},"s\n"]}`,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z","extra":"\x"}`,
	`{"kind":"sample","machine":"a","time":"2009-01-01T00:00:00Z"}`,
	`{"kind":"header","epoch":"2011-07-01T00:00:00Z"}`,
	`{"kind":"bogus"}`,
	`null`,
}

// malformedMonitorInputs must fail in both decoders with identical text.
var malformedMonitorInputs = []string{
	"not json",
	monitorHeader + "\nnot json",
	monitorHeader + "\n" + `{"kind":"sample","machine":"a","metric":1.5}`,
	monitorHeader + "\n" + `{"kind":"sample","machine":"a","value":"x"}`,
	monitorHeader + "\n" + `{"kind":"sample","time":"2012-13-40T00:00:00Z"}`,
	monitorHeader + "\n" + `{"kind":"sample","time":"2012-08-05T00:00:00Z"} x`,
	monitorHeader + "\n" + "{\"kind\":\"sam\x01ple\"}",
	monitorHeader + "\n" + `{"kind":"power","on":1}`,
	monitorHeader + "\n" + `{"kind":"header","retentionHours":1.5}`,
	monitorHeader + "\n" + monitorHeader,
	`{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z"}`,
	monitorHeader + "\n" + monitorHeader + "\nnot json\n" + monitorHeader,
}

// dbImage renders everything Decode populates: the re-encoded dump plus
// each machine's first-seen instant.
func dbImage(t *testing.T, db *DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ids := db.Machines()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		first, _ := db.FirstSeen(id)
		fmt.Fprintf(&buf, "%q first seen %s\n", id, first.Format(time.RFC3339Nano))
	}
	return buf.String()
}

// pipelineConfig is a worker count and block size the parity checks
// decode at.
type pipelineConfig struct{ workers, blockLines int }

var (
	// everyConfig crosses the sequential path and several worker counts
	// with blocks so small that every record boundary is a block
	// boundary, and with the production size.
	everyConfig = func() (cs []pipelineConfig) {
		for _, w := range []int{1, 2, 4} {
			for _, n := range []int{1, 2, 3, jsonl.BlockLines} {
				cs = append(cs, pipelineConfig{w, n})
			}
		}
		return cs
	}()
	// fuzzConfigs keeps one fuzz execution to two decodes, both with
	// tiny blocks: inline, and on several workers.
	fuzzConfigs = []pipelineConfig{{1, 1}, {4, 2}}
)

// checkMonitorParity decodes in through the json-only reference and
// through the pipeline at every configuration, and reports any difference
// in the decoded database or the error text. It returns the reference and
// the production-configuration decode.
func checkMonitorParity(t *testing.T, in []byte, configs []pipelineConfig) (fast, ref *DB) {
	t.Helper()
	return checkMonitorReaderParity(t, fmt.Sprintf("%q", in), configs, func() io.Reader { return bytes.NewReader(in) })
}

// checkMonitorReaderParity is checkMonitorParity over readers: open must
// return a fresh reader of the same stream on every call.
func checkMonitorReaderParity(t *testing.T, name string, configs []pipelineConfig, open func() io.Reader) (fast, ref *DB) {
	t.Helper()
	ref, rerr := decodeJSONOnly(open())
	var want string
	if rerr == nil {
		want = dbImage(t, ref)
	}
	for _, c := range configs {
		got, _, ferr := decode(open(), c.workers, c.blockLines)
		if (rerr == nil) != (ferr == nil) || (rerr != nil && rerr.Error() != ferr.Error()) {
			t.Fatalf("error mismatch on %s at %d workers, %d-line blocks:\nfast:      %v\njson-only: %v",
				name, c.workers, c.blockLines, ferr, rerr)
		}
		if rerr == nil {
			if img := dbImage(t, got); img != want {
				t.Fatalf("database mismatch on %s at %d workers, %d-line blocks:\nfast:\n%s\njson-only:\n%s",
					name, c.workers, c.blockLines, img, want)
			}
		}
		fast = got
	}
	return fast, ref
}

// TestDecodeMatchesJSONOnly round-trips canonical Encode output through
// both decoders: byte-identical re-encodes, every line on the fast path,
// and a footprint that can only shrink (AddSeries trims append slack).
func TestDecodeMatchesJSONOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := canonicalDB().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fast, ref := checkMonitorParity(t, buf.Bytes(), everyConfig)
	fast0, fb0 := decodeFast.Load(), decodeFallback.Load()
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	lines := int64(bytes.Count(buf.Bytes(), []byte("\n")))
	if fb := decodeFallback.Load() - fb0; fb != 0 {
		t.Fatalf("canonical lines fell back to encoding/json: %d", fb)
	}
	if n := decodeFast.Load() - fast0; n != lines {
		t.Fatalf("fast-path lines = %d, want %d", n, lines)
	}
	if got := dbImage(t, fast); !strings.HasPrefix(got, buf.String()) {
		t.Fatal("decoded database does not re-encode to its input")
	}
	ff, rf := fast.Footprint(), ref.Footprint()
	if ff.GridSamples != rf.GridSamples || ff.RowSamples != rf.RowSamples || ff.Bytes > rf.Bytes {
		t.Fatalf("footprint: fast %+v, json-only %+v", ff, rf)
	}
}

// TestDecodeBlockBoundaries holds the pipeline to the json-only reference
// where block boundaries could show: line endings, blank lines, an
// over-long line, a reader that fails mid-stream, and a bad line in the
// first, a middle and the last block.
func TestDecodeBlockBoundaries(t *testing.T) {
	var buf bytes.Buffer
	if err := canonicalDB().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	cases := map[string][]byte{
		"canonical":        dump,
		"crlf":             bytes.ReplaceAll(dump, []byte("\n"), []byte("\r\n")),
		"blank":            []byte("\n\n" + strings.Join(lines, "\n\r\n") + "\n\n"),
		"no final newline": bytes.TrimSuffix(dump, []byte("\n")),
	}
	for _, at := range []int{1, len(lines) / 2, len(lines) - 1} {
		bad := append([]string(nil), lines...)
		bad[at] = "{\"kind\":\"sample\",\"machine\":\"a\",\"value\":\"x\"}\n"
		cases[fmt.Sprintf("bad line %d", at+1)] = []byte(strings.Join(bad, ""))
		bad[at] = "{\"kind\":\"power\",\"machine\":\"a\"}\n"
		cases[fmt.Sprintf("malformed power line %d", at+1)] = []byte(strings.Join(bad, ""))
		cases[fmt.Sprintf("blank, malformed power line %d", at+1)] = []byte("\n" + strings.Join(bad, "\n"))
	}
	for name, in := range cases {
		checkMonitorReaderParity(t, name, everyConfig, func() io.Reader { return bytes.NewReader(in) })
	}

	half := bytes.IndexByte(dump[len(dump)/2:], '\n') + len(dump)/2 + 1
	errDisk := errors.New("disk on fire")
	checkMonitorReaderParity(t, "reader failing at a line end", everyConfig, func() io.Reader {
		return io.MultiReader(bytes.NewReader(dump[:half]), iotest.ErrReader(errDisk))
	})
	checkMonitorReaderParity(t, "reader failing mid-line", everyConfig, func() io.Reader {
		return io.MultiReader(bytes.NewReader(dump[:half+5]), iotest.ErrReader(errDisk))
	})
	long := bytes.Repeat([]byte("x"), 1<<24+1)
	checkMonitorReaderParity(t, "line over 16 MiB", everyConfig, func() io.Reader {
		return io.MultiReader(bytes.NewReader(dump[:half]), bytes.NewReader(long))
	})
}

// repeatReader serves head, then line n times, counting the bytes it
// hands out.
type repeatReader struct {
	head, line []byte
	n          int
	read       int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	k := 0
	for k < len(p) {
		if len(r.head) == 0 {
			if r.n == 0 {
				break
			}
			r.head, r.n = r.line, r.n-1
		}
		c := copy(p[k:], r.head)
		r.head, k = r.head[c:], k+c
	}
	r.read += k
	if k == 0 {
		return 0, io.EOF
	}
	return k, nil
}

// TestDecodeStopsAtFirstError decodes ~25 MB dumps whose third line is
// bad — to the parser, then to the fold: every configuration must report
// that line and stop reading within a few blocks of it (the scanner's
// 1 MiB buffer plus the blocks in flight), not parse the rest of the file.
func TestDecodeStopsAtFirstError(t *testing.T) {
	sample := []byte(`{"kind":"sample","machine":"S1-VM-0001","time":"2012-08-05T00:00:00Z","metric":1,"value":42.5}` + "\n")
	const n = 250_000
	for third, want := range map[string]string{
		"not json\n":         "monitordb: decode line 3: invalid character 'o' in literal null (expecting 'u')",
		monitorHeader + "\n": "monitordb: line 3: duplicate header record",
	} {
		head := monitorHeader + "\n" + string(sample) + third
		for _, workers := range []int{1, 2, 4} {
			r := &repeatReader{head: []byte(head), line: sample, n: n}
			_, _, err := decode(r, workers, jsonl.BlockLines)
			if err == nil || err.Error() != want {
				t.Fatalf("%d workers: err = %v, want %q", workers, err, want)
			}
			total := len(head) + n*len(sample)
			t.Logf("%d workers: read %d of %d bytes", workers, r.read, total)
			if r.read > 2<<20 {
				t.Fatalf("%d workers: read %d of %d bytes after an error on line 3", workers, r.read, total)
			}
		}
	}
}

func TestDecodeDuplicateHeader(t *testing.T) {
	in := monitorHeader + "\n" + `{"kind":"sample","machine":"a","time":"2012-08-05T00:00:00Z"}` + "\n" + monitorHeader + "\n"
	_, err := Decode(strings.NewReader(in))
	if want := "monitordb: line 3: duplicate header record"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestDecodeTrickyLines(t *testing.T) {
	for i, line := range trickyMonitorLines {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkMonitorParity(t, []byte(monitorHeader+"\n"+line), everyConfig)
		})
	}
}

func TestDecodeMalformedErrorText(t *testing.T) {
	for i, in := range malformedMonitorInputs {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			if _, err := Decode(strings.NewReader(in)); err == nil {
				t.Fatalf("Decode(%q) accepted", in)
			}
			checkMonitorParity(t, []byte(in), everyConfig)
		})
	}
}

// TestDecodeSteadyStateAllocs pins the fast decoder's allocations per
// sample line. Repeated machine IDs are reused and each series lands in
// one AddSeries call, so what remains is per-series storage, amortized.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	var dump bytes.Buffer
	dump.WriteString(monitorHeader + "\n")
	n := 0
	for m := 0; m < 8; m++ {
		for _, metric := range Metrics() {
			for i := 0; i < 64; i++ {
				at := obsWin.Start.Add(time.Duration(i) * 7 * 24 * time.Hour)
				fmt.Fprintf(&dump, `{"kind":"sample","machine":"S1-VM-%04d","time":%q,"metric":%d,"value":%d.5}`+"\n",
					m, at.Format(time.RFC3339), metric, i)
				n++
			}
		}
	}
	raw := dump.Bytes()
	rd := bytes.NewReader(raw)
	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		if _, err := Decode(rd); err != nil {
			t.Fatal(err)
		}
	})
	perLine := avg / float64(n)
	t.Logf("%.3f allocs/line", perLine)
	// Measured 0.204/line: about a dozen per series of 64 samples.
	if perLine > 0.25 {
		t.Fatalf("Decode allocates %.3f allocs/line (%.0f total), budget 0.25", perLine, avg)
	}
}

// FuzzDecodeMonitor holds the fast decoder to the json-only one on
// arbitrary input: databases that re-encode identically, or identical
// error text.
func FuzzDecodeMonitor(f *testing.F) {
	var buf bytes.Buffer
	if err := canonicalDB().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, line := range trickyMonitorLines {
		f.Add([]byte(monitorHeader + "\n" + line))
	}
	for _, in := range malformedMonitorInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkMonitorParity(t, in, fuzzConfigs)
	})
}
