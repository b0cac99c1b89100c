package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json a comparison needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles compares two sets of end-to-end runs of the same code, per
// workload and metric: each side's median and quartiles over its runs, the
// spread (Q3-Q1)/median, and the change of the second median from the
// first in the metric's worse direction. The sets agree on a metric when
// that change stays within the metric's bound and, except for setup_s,
// both spreads do too. It reports whether every pairing agrees.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var sp spec
	var a, b runFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &sp}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	values := func(f runFile, workload, name string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if r.Workload != workload || r.Trace || !r.Correct {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == name {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}

	fmt.Fprintf(w, "%-15s %-17s %5s %12s %12s %12s %7s %12s %12s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A q1", "A q3", "A sprd",
		"B median", "B q1", "B q3", "B sprd", "worse", "bound", "verdict")
	all := true
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-17s missing runs (A %d, B %d)\n", wl.Name, m.Name, len(va), len(vb))
				all = false
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			sa, sb := ratio(a3-a1, ma), ratio(b3-b1, mb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			ok := worse <= m.Bound && (m.Name == "setup_s" || (sa <= m.Bound && sb <= m.Bound))
			verdict := "agree"
			switch {
			case !ok:
				verdict = "DISAGREE"
				all = false
			case sa > m.Bound/3 || sb > m.Bound/3:
				verdict = "agree (spread above bound/3)"
			}
			fmt.Fprintf(w, "%-15s %-17s %2d/%-2d %12.5g %12.5g %12.5g %6.1f%% %12.5g %12.5g %12.5g %6.1f%% %+6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), ma, a1, a3, 100*sa, mb, b1, b3, 100*sb,
				100*worse, 100*m.Bound, verdict)
		}
	}
	return all, nil
}
