package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig runs each workload for exactly one pass: a zero budget still
// starts the first pass.
func smokeConfig(t *testing.T, out *bytes.Buffer) *config {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &config{root: root, binDir: t.TempDir(), work: t.TempDir(), seed: 26, out: out}
}

// printed parses "workload metric value unit" lines into workload →
// metric → unit.
func printed(out string) map[string]map[string]string {
	got := map[string]map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		if got[f[0]] == nil {
			got[f[0]] = map[string]string{}
		}
		got[f[0]][f[1]] = f[3]
	}
	return got
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T, root string) (endToEnd, perLayer []specMetric) {
	t.Helper()
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func checkPrinted(t *testing.T, out, workload string, want []specMetric) {
	t.Helper()
	got := printed(out)[workload]
	for _, m := range want {
		if unit, ok := got[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s: metric %s printed with unit %q (present %v), want %q", workload, m.Name, unit, ok, m.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	var out bytes.Buffer
	cfg := smokeConfig(t, &out)
	results, _, err := run(cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, _ := readSpec(t, cfg.root)
	for _, r := range results {
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %s", r.Workload, r.Failed, r.Attempted, r.Error)
		}
		checkPrinted(t, out.String(), r.Workload, endToEnd)
		for _, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", r.Workload, m.Name, m.Value)
			}
		}
	}
	if len(results) != len(workloads) {
		t.Errorf("%d results for %d workloads", len(results), len(workloads))
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

// Every workload's trace covers every layer, so one traced workload shows
// every per-layer metric is printed.
func TestSmokeTrace(t *testing.T) {
	var out bytes.Buffer
	cfg := smokeConfig(t, &out)
	cfg.trace = true
	sel, err := selectWorkloads("mixed-sharded")
	if err != nil {
		t.Fatal(err)
	}
	results, rep, err := run(cfg, sel)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !r.Correct {
		t.Errorf("traced run failed %d of %d ops: %s", r.Failed, r.Attempted, r.Error)
	}
	_, perLayer := readSpec(t, cfg.root)
	checkPrinted(t, out.String(), "mixed-sharded", perLayer)
	for _, span := range []string{"stream.decode", "stream.apply", "durable.recover", "ingest.collect", "daemon"} {
		if rep.Spans.Find(span) == nil {
			t.Errorf("run report has no %s span", span)
		}
	}
	if _, ok := rep.Metrics["mixed-sharded/stream.apply.ns_per_event"]; !ok {
		t.Error("run report lacks the per-layer metrics")
	}
}

func TestTamperedReferenceFailsTheRun(t *testing.T) {
	var out bytes.Buffer
	cfg := smokeConfig(t, &out)
	cfg.tamper = func(r *reference) { r.report = bytes.Replace(r.report, []byte(`"seq"`), []byte(`"Seq"`), 1) }
	sel, err := selectWorkloads("replay-mem")
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := run(cfg, sel)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Correct || r.Failed == 0 || !strings.Contains(r.Error, "/v1/report") {
		t.Errorf("a daemon serving a report unlike the reference must fail the run: correct %v, %d failed, %q",
			r.Correct, r.Failed, r.Error)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("the JSON line must say correct false:\n%s", out.String())
	}
}
