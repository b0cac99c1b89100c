// Package clikit carries the observability plumbing shared by the five
// command-line tools: the -v/-trace-out/-debug-addr/-log-level/-log-format
// flag set, the -cpuprofile/-memprofile pprof switches, observer
// construction (with the structured logger attached), the debug HTTP
// server, and the end-of-run emission (stage tree, metric dump, run-report
// JSON).
package clikit

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"failscope/internal/mempool"
	"failscope/internal/obs"
	"failscope/internal/telemetry"
)

// Flags is the shared observability flag set. Register it with AddFlags
// before flag.Parse.
type Flags struct {
	Verbose     bool
	TraceOut    string
	DebugAddr   string
	LogLevel    string
	LogFormat   string
	CPUProfile  string
	MemProfile  string
	HistoryTick time.Duration

	// DebugBound is the address the -debug-addr server actually bound
	// (useful when the flag asked for an ephemeral port). Set by Observer.
	DebugBound string
}

// AddFlags registers the shared observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Verbose, "v", false, "print the stage breakdown and pipeline metrics to stderr")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the machine-readable run report (JSON) to this file")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060) for the run's duration")
	fs.StringVar(&f.LogLevel, "log-level", "", "emit structured pipeline logs to stderr at this level: debug, info, warn or error (empty = off)")
	fs.StringVar(&f.LogFormat, "log-format", obs.FormatText, "structured log format: text or json")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile for the whole run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile (after a final GC) to this file at shutdown")
	fs.DurationVar(&f.HistoryTick, "history-interval", 5*time.Second, "with -debug-addr: snapshot cadence for /v1/metrics/history")
	return f
}

// Wanted reports whether any flag asks for an observed run. The profile
// flags do not count: profiling works without the span/metrics machinery,
// so -cpuprofile alone keeps the observer nil and the run unobserved.
func (f *Flags) Wanted() bool {
	return f.Verbose || f.TraceOut != "" || f.DebugAddr != "" || f.LogLevel != ""
}

// Observer builds the observer the flags ask for: nil (a no-op observer)
// when no observability flag is set, otherwise one named after the
// command, with the structured logger attached when -log-level is set and
// the debug server running when -debug-addr is set. Profiling flags are
// honoured either way — a CPU profile starts here and both profiles are
// written by the shutdown func, which is non-nil and must be called
// (deferred) by the caller.
func (f *Flags) Observer(cmd string) (*obs.Observer, func(), error) {
	stopProfiles, err := f.startProfiles(cmd)
	if err != nil {
		return nil, func() {}, err
	}
	if !f.Wanted() {
		return nil, stopProfiles, nil
	}
	o := obs.NewObserver(cmd)
	// Buffer-pool counters are published whenever the registry is read, so
	// dumps, run reports and debug scrapes carry the live reuse picture.
	o.Metrics().Collect("mempool", mempool.Publish)
	if f.LogLevel != "" {
		log, err := obs.NewLogger(os.Stderr, f.LogLevel, f.LogFormat)
		if err != nil {
			return nil, stopProfiles, err
		}
		o.WithLogger(log)
	}
	shutdown := stopProfiles
	if f.DebugAddr != "" {
		// The debug server carries the live-telemetry surface too: the
		// Prometheus exposition of the observer registry and the
		// self-monitoring history ring, sampled on -history-interval.
		hist := telemetry.NewHistory(o.Metrics().Snapshot, f.HistoryTick)
		hist.Start()
		bound, stop, err := obs.ServeDebug(f.DebugAddr,
			obs.Route{Pattern: "/metrics", Handler: telemetry.Handler(o.Metrics(), nil)},
			obs.Route{Pattern: "/v1/metrics/history", Handler: hist.Handler()},
		)
		if err != nil {
			hist.Stop()
			return nil, shutdown, err
		}
		shutdown = func() {
			stop()
			hist.Stop()
			stopProfiles()
		}
		f.DebugBound = bound
		o.Publish("failscope")
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/debug/pprof/\n", cmd, bound)
	}
	return o, shutdown, nil
}

// startProfiles begins CPU profiling when -cpuprofile is set and returns
// the func that stops it and writes the -memprofile heap snapshot. The
// heap profile runs a GC first so it shows retained memory, not garbage
// awaiting collection.
func (f *Flags) startProfiles(cmd string) (func(), error) {
	stop := func() {}
	if f.CPUProfile != "" {
		out, err := os.Create(f.CPUProfile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return stop, err
		}
		cpuOut := out
		stop = func() {
			pprof.StopCPUProfile()
			if err := cpuOut.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: close cpu profile: %v\n", cmd, err)
			}
		}
	}
	if f.MemProfile == "" {
		return stop, nil
	}
	stopCPU := stop
	return func() {
		stopCPU()
		out, err := os.Create(f.MemProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: create mem profile: %v\n", cmd, err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: write mem profile: %v\n", cmd, err)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: close mem profile: %v\n", cmd, err)
		}
	}, nil
}

// Emit finishes the observed run: it prints the stage tree and metric dump
// under -v and writes the run report under -trace-out, letting decorate
// (when non-nil) attach extra sections — e.g. the fidelity scoreboard —
// before the JSON is written. Both read the registry, so its collectors
// (Observer registers the buffer-pool one) publish first. Safe to call
// with a nil observer.
func (f *Flags) Emit(cmd string, o *obs.Observer, decorate func(*obs.RunReport)) error {
	o.Finish()
	if f.Verbose && o != nil {
		fmt.Fprintf(os.Stderr, "Stage breakdown:\n%s\nMetrics:\n%s", o.Tree(), o.Metrics().Dump())
	}
	if f.TraceOut == "" {
		return nil
	}
	rep := o.RunReport()
	if decorate != nil && rep != nil {
		decorate(rep)
	}
	out, err := os.Create(f.TraceOut)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: wrote run report to %s\n", cmd, f.TraceOut)
	return nil
}
