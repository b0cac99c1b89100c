package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p, v float64
	}{
		{10000, 0.9, 9000},
		{100, 0.9, 90},      // exactly 10 beyond
		{99, 89.0 / 99, 89}, // 9 beyond p90: the 11th largest
		{20, 0.5, 10},
		{11, 1.0 / 11, 1},
		{10, 1, 10}, // none has 10 beyond: the maximum
		{1, 1, 1},
	} {
		p, v := tail(seq(c.n))
		if p != c.p || v != c.v {
			t.Errorf("tail of 1..%d = p%g %g, want p%g %g", c.n, 100*p, v, 100*c.p, c.v)
		}
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if p, v := tail(nil); p != 0 || v != 0 {
		t.Errorf("tail(nil) = %g %g, want 0 0", p, v)
	}
	if got := percentLabel(0.999); got != "p99.9" {
		t.Errorf("percentLabel(0.999) = %q", got)
	}
}

// The repeatability rule is Python's statistics.quantiles(xs, n=4); these
// are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 2, 7},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g, want %g %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	ol := newOpenLoop(t0, 10*time.Millisecond)
	ol.record(0, at(0), at(30))  // the daemon stalls for 30 ms
	ol.record(1, at(30), at(31)) // due at 10, sent when the stall ended
	ol.record(2, at(31), at(32)) // due at 20
	ol.record(3, at(30), at(31)) // due at 30, on time
	for i, c := range []struct{ latency, lateness float64 }{{30, 0}, {21, 20}, {12, 11}, {1, 0}} {
		if ol.latency[i] != c.latency || ol.lateness[i] != c.lateness {
			t.Errorf("request %d: latency %g lateness %g, want %g %g",
				i, ol.latency[i], ol.lateness[i], c.latency, c.lateness)
		}
	}
}

func TestPeakRSSFromProcStatus(t *testing.T) {
	status := "Name:\tfailscoped\nVmPeak:\t  900000 kB\nVmHWM:\t   204800 kB\nVmRSS:\t   102400 kB\n"
	if mib, ok := peakRSSMiB([]byte(status)); !ok || mib != 200 {
		t.Errorf("peakRSSMiB = %g, %v; want 200, true", mib, ok)
	}
	if _, ok := peakRSSMiB([]byte("Name:\tzombie\nState:\tZ (zombie)\n")); ok {
		t.Error("a status without VmHWM must not parse")
	}
	self, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if mib, ok := peakRSSMiB(self); !ok || mib <= 0 {
		t.Errorf("own peak RSS = %g, %v", mib, ok)
	}
}

func TestOpsAccounting(t *testing.T) {
	var o ops
	boom := errors.New("boom")
	if !o.record(nil) || o.record(boom) || !o.record(nil) {
		t.Fatal("record must report each op's success")
	}
	var reads ops
	reads.record(nil)
	reads.record(errors.New("later"))
	o.add(reads)
	if o.attempted != 5 || o.failed != 2 || !errors.Is(o.firstErr, boom) {
		t.Errorf("ops = %d attempted, %d failed, first %v; want 5, 2, boom", o.attempted, o.failed, o.firstErr)
	}
}

func TestFactorsScaleToTheReferenceHost(t *testing.T) {
	// Steps between probes of 15 and 15 ms ran at reference speed; a step
	// between 15 and 45 ms ran twice as slow on average, so its times halve.
	got := factors([]float64{refProbeMS, refProbeMS, 3 * refProbeMS})
	if len(got) != 2 || got[0] != 1 || got[1] != 0.5 {
		t.Errorf("factors = %v, want [1 0.5]", got)
	}
	if ms := newProbe().ms(); ms <= 0 {
		t.Errorf("probe took %g ms", ms)
	}
}

func TestBudgetStartsOnlyPassesThatFit(t *testing.T) {
	b := &budget{start: time.Now().Add(-7 * time.Second), limit: 10 * time.Second}
	b.last = b.start
	// 7 s spent and the first pass took all of it: a second would end at 14 s.
	if b.next() {
		t.Error("a pass that would overrun the budget must not start")
	}
	if z := newBudget(0); !z.next() || z.next() {
		t.Error("a zero budget runs exactly one pass")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads": [{"name": "w"}], "end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`
	write := func(name string, setup, tput []float64) string {
		var f runFile
		for i := range setup {
			f.Runs = append(f.Runs, &result{Workload: "w", Correct: true, Metrics: []metric{
				{"setup_s", setup[i], "s"}, {"throughput_per_s", tput[i], "1/s"}}})
		}
		path := filepath.Join(dir, name)
		if err := appendRuns(path, f.Runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.json", []float64{1, 1.1, 0.9, 1}, []float64{100, 101, 99, 100})
	same := write("b.json", []float64{1.2, 1.0, 1.1, 1}, []float64{98, 100, 99, 101})
	slower := write("c.json", []float64{1, 1, 1, 1}, []float64{85, 86, 84, 85})

	var out strings.Builder
	if ok, err := compareFiles(&out, specPath, a, same); err != nil || !ok {
		t.Errorf("same code must agree (err %v):\n%s", err, out.String())
	}
	out.Reset()
	ok, err := compareFiles(&out, specPath, a, slower)
	if err != nil || ok || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("a 15%% throughput drop must disagree (err %v):\n%s", err, out.String())
	}
}
