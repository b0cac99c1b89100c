package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"failscope"
)

// TestSectionNamesSorted guards the -section listing: deterministic,
// sorted, duplicate-free, and including the fidelity scoreboard.
func TestSectionNamesSorted(t *testing.T) {
	names := sectionNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("sectionNames() not sorted: %v", names)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate section %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"fidelity", "tableII", "figs7-10", "detection"} {
		if !seen[want] {
			t.Errorf("section %q missing from %v", want, names)
		}
	}
	if len(names) != len(sections) {
		t.Errorf("listing has %d names for %d sections", len(names), len(sections))
	}
}

func TestSectionByNameUnknown(t *testing.T) {
	if sectionByName("no-such-section") != nil {
		t.Error("sectionByName returned a renderer for an unknown section")
	}
	for _, s := range sections {
		if sectionByName(s.name) == nil {
			t.Errorf("registered section %q not resolvable", s.name)
		}
	}
}

// TestFidelityGate drives the gate both ways with a fabricated scoreboard.
func TestFidelityGate(t *testing.T) {
	if err := fidelityGate(false, nil); err != nil {
		t.Errorf("disabled gate returned %v", err)
	}
	if err := fidelityGate(true, nil); err != nil {
		t.Errorf("gate without a scoreboard returned %v", err)
	}
	clean := &failscope.FidelityScoreboard{
		Bands:  []failscope.FidelityBand{{Name: "ok", Verdict: failscope.FidelityPass}},
		Passed: 1,
	}
	if err := fidelityGate(true, clean); err != nil {
		t.Errorf("clean gate returned %v", err)
	}
	broken := &failscope.FidelityScoreboard{
		Bands:  []failscope.FidelityBand{{Name: "pm_weekly_rate", Verdict: failscope.FidelityFail}},
		Failed: 1,
	}
	err := fidelityGate(true, broken)
	if err == nil {
		t.Fatal("gate passed a scoreboard with a failed band")
	}
	if !strings.Contains(err.Error(), "pm_weekly_rate") {
		t.Errorf("gate error %q does not name the failed band", err)
	}
}

// TestDetectionGate mirrors the fidelity gate test: disabled and
// scoreboard-less invocations are clean, a failed band trips the gate with
// an error naming it and the detection prefix.
func TestDetectionGate(t *testing.T) {
	if err := detectionGate(false, nil); err != nil {
		t.Errorf("disabled gate returned %v", err)
	}
	if err := detectionGate(true, nil); err != nil {
		t.Errorf("gate without a scoreboard returned %v", err)
	}
	clean := &failscope.FidelityScoreboard{
		Bands:  []failscope.FidelityBand{{Name: "detect_precision", Verdict: failscope.FidelityPass}},
		Passed: 1,
	}
	if err := detectionGate(true, clean); err != nil {
		t.Errorf("clean gate returned %v", err)
	}
	broken := &failscope.FidelityScoreboard{
		Bands:  []failscope.FidelityBand{{Name: "detect_resolved", Verdict: failscope.FidelityFail}},
		Failed: 1,
	}
	err := detectionGate(true, broken)
	if err == nil {
		t.Fatal("gate passed a scoreboard with a failed band")
	}
	if !strings.Contains(err.Error(), "detect_resolved") || !strings.Contains(err.Error(), "detection") {
		t.Errorf("gate error %q does not name the failed band and layer", err)
	}
}

// TestRunOnFilesNamesCorruptFile checks a dump decode error names both the
// file and the offending line.
func TestRunOnFilesNamesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "tickets.jsonl")
	monPath := filepath.Join(dir, "monitor.jsonl")
	dataset := `{"kind":"header","header":{"start":"2012-07-01T00:00:00Z","end":"2013-07-01T00:00:00Z"}}` + "\n"
	monitor := `{"kind":"header","epoch":"2011-07-01T00:00:00Z","retentionHours":17520}` + "\n" +
		`{"kind":"sample","machine":"m","metric":1,"time":"2012-08-05T00:00:00Z","value":1}` + "\n" +
		`{"kind":"sample","machine":"m","metric":1,"time":"2012-08-12T00:00:00Z","value":` + "\n"
	if err := os.WriteFile(dataPath, []byte(dataset), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(monPath, []byte(monitor), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := runOnFiles(failscope.SmallStudy(), dataPath, monPath)
	if err == nil {
		t.Fatal("corrupt monitor dump accepted")
	}
	if !strings.Contains(err.Error(), monPath) || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name %s and line 3", err, monPath)
	}

	if err := os.WriteFile(dataPath, []byte(dataset+dataset), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runOnFiles(failscope.SmallStudy(), dataPath, "")
	if err == nil || !strings.Contains(err.Error(), dataPath) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("duplicate-header dataset: error %v does not name %s and line 2", err, dataPath)
	}
}
