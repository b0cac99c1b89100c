// Command failscoped is the live-analysis daemon: it keeps a streaming
// failure-analysis engine (internal/stream) behind a small HTTP API, so
// ticket and monitoring events can be POSTed as they happen and the
// paper's §IV statistics queried at any moment.
//
//	POST /v1/events            ingest a JSONL event batch (400 names the bad line)
//	GET  /v1/report            full snapshot: counters + the streaming core.Report
//	GET  /v1/rates             the Fig. 2 weekly failure rates only
//	GET  /v1/fidelity          the paper-band scoreboard for the current snapshot
//	GET  /v1/alerts            online-detection state: active alerts + cleared ring
//	GET  /healthz              liveness + build identity + ingestion counters
//	GET  /metrics              Prometheus text exposition of the live registry
//	GET  /v1/metrics/history   windowed JSON over the self-monitoring ring
//	GET  /debug/requests       bounded buffer of slow and errored requests
//
// Usage:
//
//	failscoped [-addr localhost:8080] [-scale paper|small] [-seed N]
//	failscoped -shards 4 -scale fleet
//	failscoped -replay -scale small -replay-speed 0 [-classify]
//	failscoped -scale small -v -debug-addr localhost:6060
//	failscoped -data-dir /var/lib/failscope [-checkpoint-interval 1m]
//
// With -shards N > 1 the engine splits into N machine-hash shards behind
// per-shard bounded ingest queues; reads merge the shard snapshots back
// into the single-engine shape (see internal/shard and DESIGN.md §15).
//
// With -data-dir the daemon runs durably: every ingested batch is framed
// into a write-ahead log before its POST succeeds, a checkpoint spills the
// full engine state when an 8 MiB WAL segment seals with at least the last
// image's size of WAL past the last checkpoint (and on the
// -checkpoint-interval ticker), and startup recovers checkpoint + WAL tail
// before the listener opens (see internal/durable and DESIGN.md §14).
//
// With -replay the daemon generates the selected dcsim dataset and streams
// it into its own engine in arrival order — at full speed by default, or
// paced by -replay-speed (simulated seconds per wall second).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"failscope"
	"failscope/internal/clikit"
	"failscope/internal/detect"
	"failscope/internal/durable"
	"failscope/internal/ingest"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failscoped:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "localhost:8080", "HTTP listen address")
		scale       = flag.String("scale", "paper", "study scale the engine is configured for: paper, small or fleet")
		seed        = flag.Uint64("seed", 0, "generator seed for -replay (0 keeps the calibrated default)")
		parallel    = flag.Int("parallelism", 0, "worker count for -replay generation (0 = all CPUs)")
		replay      = flag.Bool("replay", false, "generate the selected dataset and stream it into the engine")
		replaySpeed = flag.Float64("replay-speed", 0, "simulated seconds streamed per wall second (0 = full speed)")
		replayBatch = flag.Int("replay-batch", 5000, "events per replay ingestion batch")
		replayWire  = flag.Bool("replay-wire", false, "with -replay: push the events through the JSONL wire codec (encode once, then pooled decode + grouped ingest under decode/ingest spans) instead of applying in-process slices")
		classify    = flag.Bool("classify", false, "with -replay: train the two-stage ticket classifier on the generated tickets and score the stream online")
		dataDir     = flag.String("data-dir", "", "directory for the durable store (WAL + checkpoints); empty runs in-memory only")
		shards      = flag.Int("shards", 1, "stream-engine shards (machine-hash partitions; each shard is an independent engine behind its own ingest queue)")
		shardQueue  = flag.Int("shard-queue", shard.DefaultQueueLen, "per-shard ingest queue capacity in batches (full queues block posters)")
		ckptEvery   = flag.Duration("checkpoint-interval", 5*time.Minute, "with -data-dir: cadence of periodic checkpoints, on top of the ones sealed WAL segments trigger (0 disables the ticker; sealed segments and drain still checkpoint)")
		detectOn    = flag.Bool("detect", true, "run the online failure detector (serves /v1/alerts and detect.* metrics)")
		detHorizon  = flag.Duration("detect-horizon", 0, "alert confirmation horizon (0 = calibrated default)")
		histSize    = flag.Int("history-size", 720, "snapshots retained in the metrics history ring")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "requests at or above this duration are kept in /debug/requests (0 keeps every request)")
		traceBuffer = flag.Int("trace-buffer", 128, "slow/errored requests retained for /debug/requests")
	)
	ofl := clikit.AddFlags(flag.CommandLine)
	flag.Parse()

	var study failscope.Study
	switch *scale {
	case "paper":
		study = failscope.PaperStudy()
	case "small":
		study = failscope.SmallStudy()
	case "fleet":
		study = failscope.FleetStudy()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *replayWire && !*replay {
		return fmt.Errorf("-replay-wire needs -replay")
	}
	if *seed != 0 {
		study.Generator.Seed = *seed
	}
	study = study.WithParallelism(*parallel)
	if *classify && !*replay {
		return fmt.Errorf("-classify needs -replay (it trains on the generated tickets)")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", *shards)
	}
	if *dataDir != "" && *shards > 1 {
		// The durable store journals and checkpoints exactly one engine; a
		// sharded fleet would need per-shard WALs with a recovery that
		// replays them against the same hash ownership (DESIGN.md §15).
		return fmt.Errorf("-data-dir requires -shards 1: durable mode journals a single engine (per-shard WALs are not implemented yet)")
	}

	o, stopDebug, err := ofl.Observer("failscoped")
	if err != nil {
		return err
	}
	defer stopDebug()
	if o == nil {
		// The daemon always observes itself so /metrics and the history
		// ring have a live registry; Emit stays silent without -v/-trace-out.
		o = obs.NewObserver("failscoped")
	}
	o.SetMeta(study.Generator.Seed, *parallel,
		fmt.Sprintf("scale=%s replay=%v speed=%g shards=%d", *scale, *replay, *replaySpeed, *shards))

	// Generate the replay dataset (and optionally train the classifier)
	// before the server comes up, so the first snapshot already has the
	// frozen model attached.
	var events []stream.Event
	cfg := stream.Config{
		Observation:      study.Generator.Observation,
		FineWindow:       study.Generator.FineWindow,
		MonitorEpoch:     study.Generator.MonitorEpoch,
		MonitorRetention: study.Generator.MonitorRetention,
		Observer:         o,
	}
	if *replay {
		genSpan := o.Start("generate")
		study.Generator.Observer = o.Under(genSpan)
		field, err := failscope.Generate(study.Generator)
		genSpan.End()
		if err != nil {
			return err
		}
		if *classify {
			trainSpan := o.Start("train-classifier")
			study.Collect.Observer = o.Under(trainSpan)
			clf, err := ingest.TrainOnlineClassifier(field.Data.Tickets, study.Collect)
			trainSpan.End()
			if err != nil {
				return err
			}
			cfg.Classifier = clf
		}
		events = stream.EventsFromField(field.Data, field.Tickets, field.Monitor)
		fmt.Fprintf(os.Stderr, "failscoped: replaying %d events (%s scale)\n", len(events), *scale)
	}
	// One engine per shard, each with its own detector (machines are
	// disjoint across shards, so detection state never splits). The frozen
	// classifier model is read-only at predict time and safely shared; a
	// single-shard daemon gets exactly the pre-sharding configuration — no
	// gauge labels, no queues.
	engines := make([]*stream.Engine, *shards)
	var detectors []*detect.Detector
	for i := range engines {
		ecfg := cfg
		if *shards > 1 {
			ecfg.GaugeLabel = fmt.Sprint(i)
		}
		if *detectOn {
			// Created after classifier training so raised alerts carry the
			// frozen model's cause attribution when -classify is on.
			d := failscope.NewDetector(failscope.DetectorConfig{
				Horizon:    *detHorizon,
				Classifier: cfg.Classifier,
			})
			detectors = append(detectors, d)
			ecfg.Detector = d
		}
		engines[i], err = stream.NewEngine(ecfg)
		if err != nil {
			return err
		}
	}
	rt, err := shard.New(shard.Options{
		Engines:   engines,
		Detectors: detectors,
		QueueLen:  *shardQueue,
		Registry:  o.Metrics(),
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	eng := engines[0] // durable mode (single-shard only) journals this one

	// Durable mode: recover whatever a previous process persisted, then
	// attach the store as the engine's journal so every applied batch hits
	// the WAL before its caller sees success. Recovery runs before the
	// journal attaches — replayed events must not be re-journaled.
	var (
		store    *durable.Store
		recovery *durable.RecoveryInfo
	)
	if *dataDir != "" {
		store, err = durable.Open(*dataDir, durable.Options{Registry: o.Metrics()})
		if err != nil {
			return err
		}
		defer store.Close()
		recSpan := o.Start("recover")
		info, err := store.Recover(eng)
		recSpan.AddPool(info.Replay)
		recSpan.End()
		if err != nil {
			return err
		}
		recovery = &info
		eng.SetJournal(store)
		fmt.Fprintf(os.Stderr,
			"failscoped: recovered to seq %d (checkpoint %d, %d WAL records / %d events replayed in %v)\n",
			info.Seq, info.CheckpointSeq, info.ReplayedRecords, info.ReplayedEvents,
			info.Duration.Round(time.Millisecond))
		if *replay && info.Seq > 0 {
			// The replay dataset is deterministic for a given seed, and the
			// engine sequence counts applied events, so the recovered seq is
			// an index into the regenerated event list: resume after it.
			if skip := info.Seq; skip >= int64(len(events)) {
				events = nil
			} else {
				events = events[skip:]
			}
			fmt.Fprintf(os.Stderr, "failscoped: resuming replay with %d events remaining\n", len(events))
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// -history-interval comes from the shared clikit flag set; it paces the
	// API server's history ring here and the debug server's when set.
	api := newServer(rt, o, serverOptions{
		historyInterval: ofl.HistoryTick,
		historySize:     *histSize,
		traceSlow:       *traceSlow,
		traceBuffer:     *traceBuffer,
		store:           store,
		recovery:        recovery,
	})
	defer api.Close()
	srv := newHTTPServer(api)
	fmt.Fprintf(os.Stderr, "failscoped: serving on http://%s/\n", l.Addr())

	replayDone := make(chan error, 1)
	stopReplay := make(chan struct{})
	if *replay && *replayWire {
		go func() { replayDone <- replayWireEvents(rt, o, events, *replayBatch, stopReplay) }()
	} else if *replay {
		go func() { replayDone <- replayEvents(rt, events, *replayBatch, *replaySpeed, stopReplay) }()
	} else {
		replayDone <- nil
	}

	// Checkpoints bound recovery: each spills the engine state and lets the
	// store drop the WAL segments it no longer needs. One goroutine takes
	// them, on the store's Sealed signal (a segment sealed with an image's
	// worth of WAL past the last checkpoint, so a crash replays at most
	// about one image's worth) and on the -checkpoint-interval ticker;
	// triggers that arrive while one runs coalesce into the next.
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	if store != nil {
		go func() {
			defer close(ckptDone)
			var tick <-chan time.Time
			if *ckptEvery > 0 {
				t := time.NewTicker(*ckptEvery)
				defer t.Stop()
				tick = t.C
			}
			for {
				trigger := "segment"
				select {
				case <-stopCkpt:
					return
				case <-store.Sealed():
				case <-tick:
					trigger = "interval"
				}
				if _, err := checkpoint(store, eng, trigger); err != nil {
					fmt.Fprintf(os.Stderr, "failscoped: checkpoint: %v\n", err)
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "failscoped: %v, draining\n", s)
	case err := <-serveErr:
		close(stopReplay)
		close(stopCkpt)
		<-replayDone
		<-ckptDone
		return err
	}
	close(stopReplay)
	close(stopCkpt)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-replayDone; err != nil {
		return err
	}
	<-ckptDone
	if store != nil {
		// Graceful drain ends with a final checkpoint so the next boot
		// replays zero WAL records; Close seals the last segment behind it.
		seq, err := checkpoint(store, eng, "drain")
		if err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		if err := store.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "failscoped: final checkpoint at seq %d\n", seq)
	}
	return ofl.Emit("failscoped", o, func(rep *obs.RunReport) { rep.Meta.Shards = *shards })
}

// checkpoint has the store checkpoint the engine and logs the checkpoint,
// naming its trigger, when it wrote one (an engine still at the newest
// checkpoint's sequence writes nothing).
func checkpoint(store *durable.Store, eng *stream.Engine, trigger string) (int64, error) {
	before := store.CheckpointSeq()
	t0 := time.Now()
	seq, err := store.Checkpoint(eng)
	if err == nil && seq != before {
		fmt.Fprintf(os.Stderr, "failscoped: checkpoint at seq %d (trigger %s, %v)\n",
			seq, trigger, time.Since(t0).Round(time.Millisecond))
	}
	return seq, err
}

// replayWireEvents replays through the full wire path so RunReports carry
// decode and ingest spans: the events are encoded to JSONL once (one batch
// per *batch events), then every batch goes through a pooled zero-copy
// decode pass (the "decode" span, pure codec cost) and a decode+group-
// commit pass (the "ingest" span, the server's end-to-end ingestion cost).
func replayWireEvents(rt *shard.Router, o *obs.Observer, events []stream.Event, batch int, stop <-chan struct{}) error {
	if batch < 1 {
		batch = 1
	}
	encSpan := o.Start("encode-wire")
	var wire bytes.Buffer
	bounds := []int{0}
	for lo := 0; lo < len(events); lo += batch {
		hi := lo + batch
		if hi > len(events) {
			hi = len(events)
		}
		if err := stream.EncodeJSONL(&wire, events[lo:hi]); err != nil {
			encSpan.End()
			return err
		}
		bounds = append(bounds, wire.Len())
	}
	encSpan.AddItems(len(events))
	encSpan.End()
	raw := wire.Bytes()

	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var rd bytes.Reader
	decSpan := o.Start("decode")
	for i := 0; i+1 < len(bounds) && !stopped(); i++ {
		rd.Reset(raw[bounds[i]:bounds[i+1]])
		b := stream.GetBatch()
		n, err := b.DecodeJSONLInto(&rd)
		b.Release()
		if err != nil {
			decSpan.End()
			return fmt.Errorf("replay decode: %w", err)
		}
		decSpan.AddItems(n)
	}
	decSpan.End()

	ingSpan := o.Start("ingest")
	for i := 0; i+1 < len(bounds) && !stopped(); i++ {
		rd.Reset(raw[bounds[i]:bounds[i+1]])
		b := stream.GetBatch()
		n, err := b.DecodeJSONLInto(&rd)
		if err == nil {
			err = rt.Apply(b.Events)
		}
		b.Release()
		if err != nil {
			ingSpan.End()
			return fmt.Errorf("replay ingest: %w", err)
		}
		ingSpan.AddItems(n)
	}
	ingSpan.End()
	return nil
}

// replayEvents streams the dataset into the engine in arrival order.
// speed > 0 paces the stream: that many simulated seconds pass per wall
// second, measured batch to batch on the event timestamps.
func replayEvents(rt *shard.Router, events []stream.Event, batch int, speed float64, stop <-chan struct{}) error {
	if batch < 1 {
		batch = 1
	}
	var prev time.Time
	for lo := 0; lo < len(events); lo += batch {
		select {
		case <-stop:
			return nil
		default:
		}
		hi := lo + batch
		if hi > len(events) {
			hi = len(events)
		}
		if speed > 0 {
			if at := events[lo].When(); !at.IsZero() {
				if !prev.IsZero() && at.After(prev) {
					wait := time.Duration(float64(at.Sub(prev)) / speed)
					select {
					case <-stop:
						return nil
					case <-time.After(wait):
					}
				}
				prev = at
			}
		}
		if err := rt.Apply(events[lo:hi]); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}
