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
// With -shards N > 1 the engine splits into N machine-hash shards, each
// applying its slice of a batch through its own group commit; reads merge
// the shard snapshots back into the single-engine shape (see
// internal/shard and DESIGN.md §15).
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
// paced by -replay-speed (simulated seconds per wall second). Each replay
// batch takes the path a POSTed one does: JSONL encode, pooled decode,
// group commit, and in durable mode a WAL record holding the body.
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
		classify    = flag.Bool("classify", false, "with -replay: train the two-stage ticket classifier on the generated tickets and score the stream online")
		dataDir     = flag.String("data-dir", "", "directory for the durable store (WAL + checkpoints); empty runs in-memory only")
		shards      = flag.Int("shards", 1, "stream-engine shards (machine-hash partitions; each shard is an independent engine with its own group commit)")
		ckptEvery   = flag.Duration("checkpoint-interval", 5*time.Minute, "with -data-dir: cadence of periodic checkpoints, on top of the ones sealed WAL segments trigger (0 disables the ticker; sealed segments and drain still checkpoint)")
		detectOn    = flag.Bool("detect", true, "run the online failure detector (serves /v1/alerts and detect.* metrics)")
		detHorizon  = flag.Duration("detect-horizon", 0, "alert confirmation horizon (0 = calibrated default)")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "requests at or above this duration are kept in /debug/requests (0 keeps every request)")
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
		Observation: study.Generator.Observation,
		FineWindow:  study.Generator.FineWindow,
		Observer:    o,
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
	// gauge labels.
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
		traceSlow:       *traceSlow,
		store:           store,
		recovery:        recovery,
	})
	defer api.Close()
	srv := newHTTPServer(api)
	fmt.Fprintf(os.Stderr, "failscoped: serving on http://%s/\n", l.Addr())

	replayDone := make(chan error, 1)
	stopReplay := make(chan struct{})
	if *replay {
		go func() { replayDone <- replayEvents(rt, o, events, *replaySpeed, stopReplay) }()
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

// replayBatch is how many events the replay posts per batch: 5000
// events encode to about 600 KB, well under maxBatchBytes.
const replayBatch = 5000

// replayEvents streams the dataset into the router in arrival order, the
// way a client posts it: each batch is encoded to JSONL in one reused
// buffer, decoded into a pooled batch and applied by ApplyBatchTimed, so
// a durable daemon journals the body as received. speed > 0 paces the
// stream: that many simulated seconds pass per wall second, measured
// batch to batch on the event timestamps. A closed stop channel ends the
// replay before the next batch.
func replayEvents(rt *shard.Router, o *obs.Observer, events []stream.Event, speed float64, stop <-chan struct{}) error {
	span := o.Start("replay")
	defer span.End()
	var (
		body []byte
		rd   bytes.Reader
		prev time.Time
	)
	for lo := 0; lo < len(events); lo += replayBatch {
		select {
		case <-stop:
			return nil
		default:
		}
		hi := min(lo+replayBatch, len(events))
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
		var err error
		if body, err = stream.AppendJSONL(body[:0], events[lo:hi]); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rd.Reset(body)
		b := stream.GetBatch()
		n, err := b.DecodeJSONLInto(&rd)
		if err == nil {
			_, err = rt.ApplyBatchTimed(b)
		}
		b.Release()
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		span.AddItems(n)
	}
	return nil
}
