// Command failbench is failscope's benchmark. It builds failscoped, dcgen
// and failanalyze from the checkout it runs in, generates every input from
// the seed before any clock starts, drives the workloads against the
// programs as child processes, checks every output against an in-process
// reference, and prints each metric as "workload metric value unit",
// ending each workload with one JSON line.
//
//	go -C bench run ./failbench -seed 26                 # every workload, end to end
//	bash bench/run.sh --workload replay-mem --seed 1 --seconds 25 --trace 0
//	failbench -trace 1 -trace-out trace.json             # per-layer run, obs.RunReport
//	failbench -seed 3 -out runs.json                     # append run records
//	failbench -compare run-a.json run-b.json             # repeatability verdict
//
// Load comes from this one process, pinned to GOMAXPROCS=1, on at most two
// connections. It exits non-zero when any correctness check fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"failscope/internal/obs"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 26, "input seed (0 keeps the small study's calibrated seed)")
		seconds  = flag.Float64("seconds", 25, "measuring budget per workload: passes start until it is spent, and at least one runs")
		traceN   = flag.Int("trace", 0, "1: measure the layers in-process and report per-layer metrics")
		out      = flag.String("out", "", "append each run's record to this JSON file")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the traced runs' obs.RunReport here")
		compare  = flag.Bool("compare", false, "compare two -out files: failbench -compare a.json b.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two run files"))
		}
		ok, err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traceN != 0 && *traceN != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}
	sel, err := selectWorkloads(*name)
	if err != nil {
		fatal(err)
	}

	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fatal(err)
	}
	cfg := &config{
		root: root, binDir: filepath.Join(build, "bin"), work: work,
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceN == 1, out: os.Stdout,
	}
	results, report, err := run(cfg, sel)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendRuns(*out, results); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" && report != nil {
		if err := writeReport(*traceOut, report); err != nil {
			fatal(err)
		}
	}
	for _, r := range results {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "failbench: %s failed %d of %d ops: %s\n", r.Workload, r.Failed, r.Attempted, r.Error)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "failbench:", err)
	os.Exit(1)
}

// config is one invocation's settings.
type config struct {
	root    string // repository root: the checkout under test
	binDir  string // where the programs under test are built
	work    string // scratch for dumps and data directories
	seed    uint64
	seconds time.Duration
	trace   bool
	out     io.Writer

	// probe measures the host's speed between timed steps (end-to-end runs).
	probe *probe

	// tamper, when set, corrupts the expected read bodies before the daemon
	// workloads measure: the smoke test proves a wrong answer fails the run.
	tamper func(*reference)
}

func (c *config) bin(name string) string { return filepath.Join(c.binDir, name) }

// result is one workload run: the record -out keeps and -compare reads.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Error     string   `json:"error,omitempty"`
	Metrics   []metric `json:"metrics"`
	Info      []metric `json:"info,omitempty"` // printed, not gated
	Meta      runMeta  `json:"meta"`
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta records what the numbers are comparable across.
type runMeta struct {
	Seed             uint64  `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Scale            string  `json:"scale"`
	Shards           int     `json:"shards"`
	NumCPU           int     `json:"num_cpu"`
	DriverGOMAXPROCS int     `json:"driver_gomaxprocs"`
	DaemonGOMAXPROCS int     `json:"daemon_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Revision         string  `json:"revision,omitempty"`
}

func newResult(cfg *config, w workload, o ops) *result {
	r := &result{
		Workload: w.name, Trace: cfg.trace,
		Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Meta: runMeta{
			Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Scale: scale, Shards: w.shards,
			NumCPU: runtime.NumCPU(), DriverGOMAXPROCS: 1, DaemonGOMAXPROCS: runtime.NumCPU(),
			GoVersion: runtime.Version(), Revision: revision(),
		},
	}
	if o.firstErr != nil {
		r.Error = o.firstErr.Error()
	}
	return r
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// run builds the programs under test and runs each workload, printing its
// metrics as it finishes. Errors are set-up failures, after which nothing
// was measured; failed checks are reported in the results instead.
func run(cfg *config, sel []workload) ([]*result, *obs.RunReport, error) {
	if err := buildPrograms(cfg); err != nil {
		return nil, nil, err
	}
	var root *obs.Observer
	if cfg.trace {
		root = obs.NewObserver("failbench")
	} else if cfg.probe == nil {
		cfg.probe = newProbe()
	}
	var results []*result
	st := studyFor(cfg.seed)
	for _, w := range sel {
		var res *result
		var err error
		switch {
		case cfg.trace:
			res, err = traceWorkload(cfg, w, st, root)
		case w.study:
			res, err = runStudy(cfg, w)
		default:
			res, err = runDaemonWorkload(cfg, w, st)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.print(cfg.out); err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	if root == nil {
		return results, nil, nil
	}
	root.Finish()
	var shards []string
	for _, r := range results {
		shards = append(shards, fmt.Sprintf("%s:%d", r.Workload, r.Meta.Shards))
	}
	root.SetMeta(cfg.seed, 0, fmt.Sprintf("driver_gomaxprocs=1 daemon_gomaxprocs=%d shards=%s revision=%s",
		runtime.NumCPU(), strings.Join(shards, ","), revision()))
	rep := root.RunReport()
	if rep.Metrics == nil {
		rep.Metrics = map[string]float64{}
	}
	for _, r := range results {
		for _, m := range r.Metrics {
			rep.Metrics[r.Workload+"/"+m.Name] = m.Value
		}
	}
	return results, rep, nil
}

// print writes the result's lines, "workload metric value unit", and then
// the JSON line the benchmark's runner reads.
func (r *result) print(w io.Writer) error {
	var b bytes.Buffer
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(&b, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	line("ops", float64(r.Attempted), "count")
	line("ops_failed", float64(r.Failed), "count")
	for _, m := range r.Info {
		line(m.Name, m.Value, m.Unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		line(m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	js, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}
	b.Write(js)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}

// buildPrograms compiles the programs under test from the checkout.
func buildPrograms(cfg *config) error {
	if err := os.MkdirAll(cfg.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", cfg.binDir+string(filepath.Separator),
		"./cmd/failscoped", "./cmd/dcgen", "./cmd/failanalyze")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w: %s", err, lastLines(string(out), 5))
	}
	return nil
}

// findRoot walks up from the working directory to the go.mod of module
// failscope.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, l := range strings.Split(string(mod), "\n") {
				if strings.TrimSpace(l) == "module failscope" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module failscope at or above the working directory")
		}
		dir = parent
	}
}

// revision is the commit failbench was built from, when the build
// recorded one.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// runFile is the -out format: every run appended so far.
type runFile struct {
	Runs []*result `json:"runs"`
}

func appendRuns(path string, rs []*result) error {
	var f runFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rs...)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeReport(path string, rep *obs.RunReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
