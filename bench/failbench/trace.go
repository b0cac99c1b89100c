package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"failscope"
	"failscope/internal/durable"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

// layerMetrics are the per-layer metrics a traced run reports, in print
// order. bench/README.md maps each to the end-to-end metric and workload it
// should move.
var layerMetrics = []struct{ name, unit string }{
	{"stream.decode.ns_per_event", "ns"},
	{"stream.decode.allocs_per_event", "count"},
	{"stream.decode.fast_share", "ratio"},
	{"stream.apply.ns_per_event", "ns"},
	{"stream.apply.allocs_per_event", "count"},
	{"shard.wait.ms_per_batch", "ms"},
	{"shard.skew", "ratio"},
	{"durable.append.ns_per_event", "ns"},
	{"durable.sync.p50_ms", "ms"},
	{"durable.sync.tail_ms", "ms"},
	{"durable.batches_per_sync", "ratio"},
	{"durable.wal_bytes_per_event", "bytes"},
	{"durable.recover.events_per_s", "1/s"},
	{"durable.checkpoint_ms", "ms"},
	{"stream.state_bytes", "bytes"},
	{"stream.snapshot.p50_ms", "ms"},
	{"stream.snapshot.tail_ms", "ms"},
	{"detect.merge.p50_ms", "ms"},
	{"fidelity.score.p50_ms", "ms"},
	{"telemetry.expose.p50_ms", "ms"},
	{"serve.encode.p50_ms", "ms"},
	{"serve.encode.bytes_per_read", "bytes"},
	{"model.decode_s", "s"},
	{"model.decode.allocs", "count"},
	{"monitordb.decode_s", "s"},
	{"monitordb.decode.allocs", "count"},
	{"ingest.collect_s", "s"},
	{"ingest.collect.allocs", "count"},
	{"core.analyze_s", "s"},
	{"core.analyze.allocs", "count"},
	{"serve.server_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

const (
	// readIters is how many times the traced run calls each read-path layer.
	readIters = 200
	// overheadRounds is how many clocked and plain replays the tracing
	// overhead is the median of.
	overheadRounds = 5
)

// census is one traced workload: every layer's public calls on the
// workload's inputs, each layer under its own obs span.
type census struct {
	cfg    *config
	w      workload
	st     failscope.Study
	o      *obs.Observer
	shards int
	v      map[string]float64
	ops    ops
}

// traceWorkload measures the layers in-process, in the workload's
// configuration. Every workload reports every layer — the study's dumps
// and the daemon's stream come from the same seed — so a change to one
// layer shows in the trace of each workload. One daemon pass adds the
// server's share of the client's ingest latency.
func traceWorkload(cfg *config, w workload, st failscope.Study, root *obs.Observer) (*result, error) {
	sp := root.Start(w.name)
	defer sp.End()
	c := &census{cfg: cfg, w: w, st: st, o: root.Under(sp), shards: max(w.shards, 1), v: map[string]float64{}}

	field, err := failscope.Generate(st.Generator)
	if err != nil {
		return nil, err
	}
	if err := c.study(field); err != nil {
		return nil, err
	}
	in, err := genStream(field)
	if err != nil {
		return nil, err
	}
	field = nil
	if err := c.stream(in); err != nil {
		return nil, err
	}

	res := newResult(cfg, w, c.ops)
	res.Meta.Shards = c.shards
	for _, m := range layerMetrics {
		v, ok := c.v[m.name]
		if !ok {
			return nil, fmt.Errorf("trace did not measure %s", m.name)
		}
		res.Metrics = append(res.Metrics, metric{m.name, v, m.unit})
	}
	return res, nil
}

// span runs fn under a child span of the workload and returns the span's
// report (wall time, allocations).
func (c *census) span(name string, fn func(o *obs.Observer) error) (*obs.SpanReport, error) {
	runtime.GC() // start each layer from a collected heap
	sp := c.o.Start(name)
	err := fn(c.o.Under(sp))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return sp.Report(), nil
}

// study runs failanalyze's -input path: decode both dumps, collect, analyze.
func (c *census) study(field *failscope.FieldData) error {
	var tickets, monitor bytes.Buffer
	if err := failscope.WriteDataset(&tickets, field.Data); err != nil {
		return err
	}
	if err := failscope.WriteMonitor(&monitor, field.Monitor); err != nil {
		return err
	}
	var (
		data *failscope.Dataset
		mon  *failscope.MonitorDB
		col  *failscope.Collection
	)
	steps := []struct {
		name string
		fn   func(o *obs.Observer) error
	}{
		{"model.decode", func(*obs.Observer) (err error) {
			data, err = failscope.ReadDataset(&tickets)
			return err
		}},
		{"monitordb.decode", func(*obs.Observer) (err error) {
			mon, err = failscope.ReadMonitor(&monitor)
			return err
		}},
		{"ingest.collect", func(o *obs.Observer) (err error) {
			opts := c.st.Collect
			opts.Observation = data.Observation
			opts.SkipClassification = false
			opts.Parallelism = 2
			opts.Observer = o
			col, err = failscope.CollectDataset(data, data.Tickets, mon, opts)
			return err
		}},
		{"core.analyze", func(o *obs.Observer) error {
			_, err := failscope.Analyze(failscope.AnalysisInput{Data: col.Data, Attrs: col.Attrs, Observer: o})
			return err
		}},
	}
	for _, s := range steps {
		rep, err := c.span(s.name, s.fn)
		if err != nil {
			return err
		}
		c.v[s.name+"_s"] = rep.WallMS / 1000
		c.v[s.name+".allocs"] = float64(rep.Allocs)
	}
	return nil
}

// stream runs the daemon's layers: decode, routed apply, the read path,
// the write-ahead log and recovery, then one daemon pass.
func (c *census) stream(in *streamInput) error {
	events := float64(len(in.events))
	batches := in.batches
	in.events = nil // the batches are the input from here on

	// Tracing overhead: the clocked replay against the same replay without
	// clocks, alternated so drift in the host's speed hits both alike.
	var plain, clocked []float64
	for i := 0; i < overheadRounds; i++ {
		for _, clock := range []bool{false, true} {
			runtime.GC()
			r, err := c.replay(batches, nil, clock)
			if err != nil {
				return err
			}
			r.rt.Close()
			if clock {
				clocked = append(clocked, ms(r.wall))
			} else {
				plain = append(plain, ms(r.wall))
			}
		}
	}
	c.v["trace.overhead_share"] = median(clocked)/median(plain) - 1

	fast0, fallback0 := stream.DecodeStats()
	dec, err := c.span("stream.decode", func(*obs.Observer) error {
		for _, b := range batches {
			bt := stream.GetBatch()
			_, err := bt.DecodeJSONLInto(bytes.NewReader(b))
			bt.Release()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fast1, fallback1 := stream.DecodeStats()
	c.v["stream.decode.ns_per_event"] = dec.WallMS * 1e6 / events
	c.v["stream.decode.allocs_per_event"] = float64(dec.Allocs) / events
	c.v["stream.decode.fast_share"] = ratio(float64(fast1-fast0), float64(fast1-fast0+fallback1-fallback0))

	// The engines publish into a registry, as in the daemon, so the
	// exposition below has the daemon's families to write.
	eo := obs.NewObserver("engines")
	var r *replayed
	app, err := c.span("stream.apply", func(*obs.Observer) (err error) {
		r, err = c.replay(batches, eo, true)
		return err
	})
	if err != nil {
		return err
	}
	rt := r.rt
	defer rt.Close()
	c.v["stream.apply.ns_per_event"] = float64(r.apply) / events
	// The apply pass decodes too; its decode allocations are the decode
	// pass's, so the difference is apply's own.
	c.v["stream.apply.allocs_per_event"] = (float64(app.Allocs) - float64(dec.Allocs)) / events
	c.v["shard.wait.ms_per_batch"] = ms(r.wait) / float64(len(batches))
	c.v["shard.skew"] = skew(rt)

	ref := readBodies(rt)
	if err := c.reads(rt, eo.Metrics()); err != nil {
		return err
	}
	if err := c.durable(batches); err != nil {
		return err
	}
	return c.daemon(batches, int(events), ref)
}

// replayed is one decode-and-apply replay of the stream.
type replayed struct {
	rt          *shard.Router
	wall        time.Duration
	apply, wait time.Duration // over every ApplyTimed call, when clocked
}

// replay decodes each batch and applies it to a fresh router, as the
// daemon's POST handler does. With clock set it also times every apply
// call — the traced replay.
func (c *census) replay(batches [][]byte, o *obs.Observer, clock bool) (*replayed, error) {
	rt, err := newRouter(c.st, c.shards, o)
	if err != nil {
		return nil, err
	}
	r := &replayed{rt: rt}
	t0 := time.Now()
	for _, b := range batches {
		bt := stream.GetBatch()
		_, err := bt.DecodeJSONLInto(bytes.NewReader(b))
		switch {
		case err != nil:
		case clock:
			s := time.Now()
			var a time.Duration
			a, err = rt.ApplyTimed(bt.Events)
			r.apply += a
			r.wait += time.Since(s) - a
		default:
			err = rt.Apply(bt.Events)
		}
		bt.Release()
		if err != nil {
			rt.Close()
			return nil, err
		}
	}
	r.wall = time.Since(t0)
	return r, nil
}

// skew is the largest shard's event count over the mean (1 when even).
func skew(rt *shard.Router) float64 {
	var sum, top int64
	for _, e := range rt.Engines() {
		n := e.Totals().Events
		sum += n
		top = max(top, n)
	}
	return ratio(float64(top)*float64(rt.Shards()), float64(sum))
}

// reads times each read-path call a GET performs on the applied state.
func (c *census) reads(rt *shard.Router, reg *obs.Registry) error {
	var snapMS, mergeMS, fidMS, exposeMS, encMS []float64
	var encBytes int
	expose := telemetry.Handler(reg, nil)
	_, err := c.span("reads", func(*obs.Observer) error {
		for i := 0; i < readIters; i++ {
			t := time.Now()
			snap := rt.Snapshot()
			snapMS = append(snapMS, ms(time.Since(t)))
			t = time.Now()
			rt.Alerts()
			mergeMS = append(mergeMS, ms(time.Since(t)))
			t = time.Now()
			snap.Fidelity()
			fidMS = append(fidMS, ms(time.Since(t)))
			t = time.Now()
			expose.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
			exposeMS = append(exposeMS, ms(time.Since(t)))
			t = time.Now()
			encBytes += len(encodeJSON(snap))
			encMS = append(encMS, ms(time.Since(t)))
		}
		return nil
	})
	_, snapTail := tail(snapMS)
	c.v["stream.snapshot.p50_ms"] = median(snapMS)
	c.v["stream.snapshot.tail_ms"] = snapTail
	c.v["detect.merge.p50_ms"] = median(mergeMS)
	c.v["fidelity.score.p50_ms"] = median(fidMS)
	c.v["telemetry.expose.p50_ms"] = median(exposeMS)
	c.v["serve.encode.p50_ms"] = median(encMS)
	c.v["serve.encode.bytes_per_read"] = float64(encBytes) / readIters
	return err
}

// timedJournal is a stream.Journal decorator that times each WAL append
// and each group-commit sync of the store underneath.
type timedJournal struct {
	store     *durable.Store
	appendDur time.Duration
	appends   int
	syncMS    []float64
}

func (j *timedJournal) Append(startSeq int64, events []stream.Event) error {
	t := time.Now()
	err := j.store.Append(startSeq, events)
	j.appendDur += time.Since(t)
	j.appends++
	return err
}

func (j *timedJournal) Sync() error {
	t := time.Now()
	err := j.store.Sync()
	j.syncMS = append(j.syncMS, ms(time.Since(t)))
	return err
}

// durable journals the stream into a fresh store as the durable daemon
// does, recovers it into a fresh engine, then checkpoints. The recovered
// engine must report exactly what the uninterrupted one did.
func (c *census) durable(batches [][]byte) error {
	dir := filepath.Join(c.cfg.work, "trace-durable-"+c.w.name)
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	store, err := durable.Open(dir, durable.Options{Registry: reg})
	if err != nil {
		return err
	}
	rt, err := newRouter(c.st, 1, nil)
	if err != nil {
		return err
	}
	j := &timedJournal{store: store}
	rt.Engines()[0].SetJournal(j)
	events := 0
	_, err = c.span("durable.append", func(*obs.Observer) error {
		for _, b := range batches {
			bt := stream.GetBatch()
			n, err := bt.DecodeJSONLInto(bytes.NewReader(b))
			if err == nil {
				err = rt.Apply(bt.Events)
			}
			bt.Release()
			if err != nil {
				return err
			}
			events += n
		}
		return store.Close()
	})
	want := readBodies(rt).report
	rt.Close()
	if err != nil {
		return err
	}
	_, syncTail := tail(j.syncMS)
	c.v["durable.append.ns_per_event"] = float64(j.appendDur) / float64(events)
	c.v["durable.sync.p50_ms"] = median(j.syncMS)
	c.v["durable.sync.tail_ms"] = syncTail
	c.v["durable.batches_per_sync"] = ratio(float64(j.appends), float64(len(j.syncMS)))
	c.v["durable.wal_bytes_per_event"] = reg.Gauge("durable.wal_bytes").Value() / float64(events)

	if store, err = durable.Open(dir, durable.Options{}); err != nil {
		return err
	}
	defer store.Close()
	if rt, err = newRouter(c.st, 1, nil); err != nil {
		return err
	}
	defer rt.Close()
	eng := rt.Engines()[0]
	var info durable.RecoveryInfo
	if _, err := c.span("durable.recover", func(*obs.Observer) (err error) {
		info, err = store.Recover(eng)
		return err
	}); err != nil {
		return err
	}
	err = nil
	if got := readBodies(rt).report; !bytes.Equal(got, want) {
		err = fmt.Errorf("recovered engine's report differs from the uninterrupted one")
	}
	c.ops.record(err)
	c.v["durable.recover.events_per_s"] = ratio(float64(info.ReplayedEvents), info.Duration.Seconds())

	ckpt, err := c.span("durable.checkpoint", func(*obs.Observer) error {
		_, err := store.Checkpoint(eng)
		return err
	})
	if err != nil {
		return err
	}
	c.v["durable.checkpoint_ms"] = ckpt.WallMS
	var state countWriter
	if _, err := eng.WriteState(&state); err != nil {
		return err
	}
	c.v["stream.state_bytes"] = float64(state)
	return nil
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// daemon runs one end-to-end pass with the server's own /v1/events p50
// scraped from /metrics afterwards: the server's share of what the client
// waited. The pass sends no open-loop reads: their number follows the
// pass's wall time, and the span's allocations must not.
func (c *census) daemon(batches [][]byte, events int, ref reference) error {
	w := c.w
	w.shards, w.reads = c.shards, false
	r := &daemonRun{cfg: c.cfg, w: w, batches: batches, events: events, ref: ref, scrape: true,
		ingest: httpClient(), read: httpClient()}
	p := &pass{}
	// A failed pass is already counted in r.ops; the census goes on.
	c.span("daemon", func(*obs.Observer) error {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		r.pass(p)
		return nil
	})
	c.ops.add(r.ops)
	c.v["serve.server_share"] = ratio(median(r.serverP50), median(p.postMS))
	return nil
}
