package failscope

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// smallStudyFingerprint runs the scaled-down study end to end — simulate,
// mine, classify, join, analyze — at the given worker count and returns a
// byte-exact fingerprint of every stage's output: the encoded dataset, the
// encoded monitoring database, the classifier outcome (counts tabulated in
// sorted key order so the rendering itself cannot hide a difference) and
// the fully rendered analysis report.
func smallStudyFingerprint(t *testing.T, parallelism int) string {
	t.Helper()
	study := SmallStudy().WithParallelism(parallelism)
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteDataset(&buf, res.Field.Data); err != nil {
		t.Fatal(err)
	}
	if err := WriteMonitor(&buf, res.Field.Monitor); err != nil {
		t.Fatal(err)
	}

	// Windowed rollups over the monitoring store: this pins the columnar
	// grid's bucket index arithmetic and float accumulation order, which the
	// raw encode above cannot see.
	mon := res.Field.Monitor
	wStart := mon.Epoch()
	wEnd := wStart.Add(study.Generator.MonitorRetention)
	rollWin := model.Window{Start: wStart, End: wEnd.Add(time.Nanosecond)}
	for _, id := range mon.Machines() {
		rollup := mon.Rollup(id, monitordb.MetricCPUUtil, rollWin, 7*24*time.Hour)
		if len(rollup) == 0 {
			continue
		}
		fmt.Fprintf(&buf, "rollup %s", id)
		for _, s := range rollup {
			fmt.Fprintf(&buf, " %d:%v", s.Time.UnixNano(), s.Value)
		}
		buf.WriteByte('\n')
	}

	c := res.Collection.Classifier
	fmt.Fprintf(&buf, "classifier train=%d test=%d acc=%v crash=%v recall=%v prec=%v\n",
		c.TrainDocs, c.TestDocs, c.Accuracy, c.CrashClassAccuracy, c.CrashRecall, c.CrashPrecision)
	keys := make([][2]int, 0, len(c.Confusion.Counts))
	for k := range c.Confusion.Counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&buf, "confusion %v=%d\n", k, c.Confusion.Counts[k])
	}

	buf.WriteString(res.RenderReport())
	return buf.String()
}

// TestParallelStudyByteIdentical is the end-to-end determinism regression
// test: the full pipeline must produce byte-identical output at worker
// counts 1 (the sequential reference), 2 and GOMAXPROCS.
func TestParallelStudyByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small study three times")
	}
	ref := smallStudyFingerprint(t, 1)
	for _, p := range []int{2, runtime.GOMAXPROCS(0)} {
		got := smallStudyFingerprint(t, p)
		if got == ref {
			continue
		}
		i := 0
		for i < len(got) && i < len(ref) && got[i] == ref[i] {
			i++
		}
		lo := i - 100
		if lo < 0 {
			lo = 0
		}
		end := func(s string) int {
			if i+100 < len(s) {
				return i + 100
			}
			return len(s)
		}
		t.Fatalf("parallelism %d diverges from the sequential reference at byte %d:\nseq: …%q…\npar: …%q…",
			p, i, ref[lo:end(ref)], got[lo:end(got)])
	}
}
