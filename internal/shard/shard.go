// Package shard scales the stream engine across cores: a router that owns
// N independent stream.Engine instances, routes each event to a shard by a
// stable hash of its machine key, and serves reads by merging per-shard
// snapshots back into the single-engine shape.
//
// Routing invariants, which the equivalence suite at the repo root proves:
//
//   - Every machine is owned by exactly one shard (FNV-1a of its ID mod N),
//     so all of its tickets, samples, power events and placements land on
//     one engine and the per-server statistics (inter-failure gaps, weekly
//     failed sets, recurrence windows, detection state) never split.
//   - Machine inventory events are broadcast: the owner gets the primary
//     copy, every other shard a Ref replica that registers for incident
//     PM/VM kind lookups but counts nothing.
//   - Incidents route by their first server's hash; the replica inventory
//     makes the kind lookup of every listed server work on any shard.
//   - Placements are broadcast (primary on the VM's owner) so every
//     shard's detector sees the fleet-wide consolidation level its risk
//     scores read — co-resident VMs of one host live on many shards.
//   - Watermark advances are broadcast (primary on shard 0, replicas
//     elsewhere) so every shard's clock — and its detector's expiry scan —
//     moves together.
//   - Events with no machine key land on shard 0.
//
// Each shard is fed by its own bounded queue; a full queue blocks the
// poster (backpressure) rather than dropping. One Router call returns only
// after every shard has folded its slice in, so callers keep the POST
// semantics of the single engine: a 2xx response means the batch is
// applied.
package shard

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"failscope/internal/detect"
	"failscope/internal/mempool"
	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

// DefaultQueueLen is the per-shard ingest queue capacity, in batches.
const DefaultQueueLen = 64

// Options configures a Router.
type Options struct {
	// Engines are the shard engines, all built from the same observation
	// window. With more than one, each Config.GaugeLabel should be the
	// shard index so the shared registry's gauge families do not collide.
	Engines []*stream.Engine

	// Detectors, when detection is on, are the per-shard detection layers,
	// parallel to Engines (Detectors[i] is Engines[i]'s Config.Detector).
	// Nil when detection is off.
	Detectors []*detect.Detector

	// QueueLen is the per-shard ingest queue capacity in batches;
	// DefaultQueueLen when zero.
	QueueLen int

	// Registry, when non-nil, receives the shard.* families and — for
	// multi-shard routers — the fleet-aggregate stream.*, detect.* and
	// monitordb.* gauges, published when it is read (Publish is its
	// collector).
	Registry *obs.Registry
}

// job is one shard's slice of a routed batch, waiting on its queue.
type job struct {
	events  []stream.Event
	applied time.Duration
	err     error
	done    chan struct{}
}

var jobPool = mempool.New("shard.job", 256,
	func() *job { return &job{done: make(chan struct{}, 1)} },
	func(j *job) *job { j.events = nil; j.applied = 0; j.err = nil; return j },
)

// Router routes event batches across shard engines and merges their reads.
// A single-engine router is a pure passthrough: no queues, no workers, no
// labels — byte-for-byte the pre-sharding daemon.
type Router struct {
	engines   []*stream.Engine
	detectors []*detect.Detector
	queues    []chan *job
	reg       *obs.Registry
	wg        sync.WaitGroup

	// op guards enqueue against Close: appliers hold it shared, Close
	// exclusively, so no send can race a channel close.
	op     sync.RWMutex
	closed bool

	// scratch pools the per-call routing buffers ([][]Event + job list).
	scratch sync.Pool

	// pub guards the publish watermarks for counter families (monotone
	// deltas into the shared registry).
	pub       sync.Mutex
	pubEvents []int64
	pubRaised int64
	pubClear  int64

	// perShard caches the labeled shard.* metric names.
	perShard []shardNames
}

type shardNames struct {
	events, queueDepth string
}

// mergeBucketsMS are the shard.merge_ms histogram bounds: snapshot merges
// are O(weeks + classes + failing machines), well under a second.
var mergeBucketsMS = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000}

// New builds a router over pre-built shard engines. The engines must share
// one observation window; Detectors, when given, must be parallel to
// Engines.
func New(opts Options) (*Router, error) {
	n := len(opts.Engines)
	if n == 0 {
		return nil, fmt.Errorf("shard: no engines")
	}
	if opts.Detectors != nil && len(opts.Detectors) != n {
		return nil, fmt.Errorf("shard: %d detectors for %d engines", len(opts.Detectors), n)
	}
	r := &Router{
		engines:   opts.Engines,
		detectors: opts.Detectors,
		reg:       opts.Registry,
		pubEvents: make([]int64, n),
		perShard:  make([]shardNames, n),
	}
	for i := range r.perShard {
		label := strconv.Itoa(i)
		r.perShard[i] = shardNames{
			events:     telemetry.Labeled("shard.events", "shard", label),
			queueDepth: telemetry.Labeled("shard.queue_depth", "shard", label),
		}
	}
	r.scratch.New = func() any {
		return &routeScratch{perShard: make([][]stream.Event, n), jobs: make([]*job, 0, n)}
	}
	if n > 1 {
		opts.Registry.Collect("shard", r.Publish)
		qlen := opts.QueueLen
		if qlen <= 0 {
			qlen = DefaultQueueLen
		}
		r.queues = make([]chan *job, n)
		for i := range r.queues {
			r.queues[i] = make(chan *job, qlen)
			r.wg.Add(1)
			go r.worker(i)
		}
	}
	return r, nil
}

// Single wraps one engine in a passthrough router — the unsharded daemon
// and the tests use it so every caller speaks one interface.
func Single(eng *stream.Engine) *Router {
	var ds []*detect.Detector
	if d := eng.Detector(); d != nil {
		ds = []*detect.Detector{d}
	}
	r, err := New(Options{Engines: []*stream.Engine{eng}, Detectors: ds})
	if err != nil {
		panic(err) // one engine can never fail validation
	}
	return r
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.engines) }

// Engines exposes the shard engines (read-mostly: tests and recovery).
func (r *Router) Engines() []*stream.Engine { return r.engines }

// worker drains one shard's queue; each batch slice applies through the
// engine's own group-commit path.
func (r *Router) worker(i int) {
	defer r.wg.Done()
	for j := range r.queues[i] {
		j.applied, j.err = r.engines[i].ApplyTimed(j.events)
		if j.err != nil {
			j.err = fmt.Errorf("shard %d: %w", i, j.err)
		}
		j.done <- struct{}{}
	}
}

// shardOf hashes a machine key to its owning shard (FNV-1a mod N). The
// empty key — events with no machine affinity — lands on shard 0.
func (r *Router) shardOf(key model.MachineID) int {
	if len(r.engines) == 1 || key == "" {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(r.engines)))
}

type routeScratch struct {
	perShard [][]stream.Event
	jobs     []*job
}

// Apply routes one batch and waits for every shard to fold its slice in.
func (r *Router) Apply(events []stream.Event) error {
	_, err := r.ApplyTimed(events)
	return err
}

// ApplyTimed is Apply returning the slowest shard's engine-apply time for
// the batch — the same engine-cost leg the single-engine daemon traces.
// Splitting walks the batch once in order, so each shard sees its events
// in the original arrival order; on error, the lowest-numbered failing
// shard's error is returned (other shards may still have applied their
// slices, matching the single engine's partial-apply-on-error semantics).
func (r *Router) ApplyTimed(events []stream.Event) (time.Duration, error) {
	if len(r.engines) == 1 {
		return r.engines[0].ApplyTimed(events)
	}
	r.op.RLock()
	defer r.op.RUnlock()
	if r.closed {
		return 0, fmt.Errorf("shard: router closed")
	}

	sc := r.scratch.Get().(*routeScratch)
	n := len(r.engines)
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case "machine":
			owner := 0
			if ev.Machine != nil {
				owner = r.shardOf(ev.Machine.ID)
			}
			for s := 0; s < n; s++ {
				cp := *ev
				cp.Ref = s != owner
				sc.perShard[s] = append(sc.perShard[s], cp)
			}
		case "advance":
			for s := 0; s < n; s++ {
				cp := *ev
				cp.Ref = s != 0
				sc.perShard[s] = append(sc.perShard[s], cp)
			}
		case "placement":
			// Broadcast like machine events: the owner stores the
			// placement, every other shard's detector folds the replica
			// into its fleet-wide consolidation count.
			owner := r.shardOf(ev.ServerID)
			for s := 0; s < n; s++ {
				cp := *ev
				cp.Ref = s != owner
				sc.perShard[s] = append(sc.perShard[s], cp)
			}
		default:
			s := r.shardOf(keyOf(ev))
			sc.perShard[s] = append(sc.perShard[s], *ev)
		}
	}

	for s := 0; s < n; s++ {
		if len(sc.perShard[s]) == 0 {
			continue
		}
		j := jobPool.Get()
		j.events = sc.perShard[s]
		r.queues[s] <- j // full queue blocks: backpressure, never drop
		sc.jobs = append(sc.jobs, j)
	}
	var applied time.Duration
	var err error
	for _, j := range sc.jobs {
		<-j.done
		if j.applied > applied {
			applied = j.applied
		}
		if err == nil && j.err != nil {
			err = j.err
		}
		jobPool.Put(j)
	}

	for s := range sc.perShard {
		sc.perShard[s] = sc.perShard[s][:0]
	}
	sc.jobs = sc.jobs[:0]
	r.scratch.Put(sc)
	return applied, err
}

// ApplyBatchTimed is ApplyTimed for a batch decoded from the wire. A
// single engine takes the batch whole (Engine.ApplyBatchTimed), so its
// journal can record the body as received; a multi-shard router splits
// the events, which no longer match the body, and applies them as
// ApplyTimed does (durable mode runs one shard).
func (r *Router) ApplyBatchTimed(b *stream.Batch) (time.Duration, error) {
	if len(r.engines) == 1 {
		return r.engines[0].ApplyBatchTimed(b)
	}
	return r.ApplyTimed(b.Events)
}

// keyOf is the event's routing key: the machine whose per-server state the
// event feeds. Incidents key on their first listed server; the replica
// inventory makes every shard able to bucket the rest.
func keyOf(ev *stream.Event) model.MachineID {
	switch ev.Type {
	case "ticket":
		if ev.Ticket != nil {
			return ev.Ticket.ServerID
		}
	case "incident":
		if ev.Incident != nil && len(ev.Incident.Servers) > 0 {
			return ev.Incident.Servers[0]
		}
	default:
		return ev.ServerID
	}
	return ""
}

// Snapshot merges the per-shard snapshots into the single-engine shape,
// recording the merge cost in the shard.merge_ms histogram.
func (r *Router) Snapshot() *stream.Snapshot {
	if len(r.engines) == 1 {
		return r.engines[0].Snapshot()
	}
	t0 := time.Now()
	s := stream.MergeSnapshot(r.engines)
	r.reg.Histogram("shard.merge_ms", mergeBucketsMS...).
		Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	return s
}

// Seq is the fleet apply generation: the sum of per-shard event counts,
// which — replicas being uncounted — equals the single-engine sequence for
// the same stream.
func (r *Router) Seq() int64 {
	var sum int64
	for _, e := range r.engines {
		sum += e.Seq()
	}
	return sum
}

// Alerts merges the per-shard detection snapshots (nil when detection is
// off).
func (r *Router) Alerts() *detect.Snapshot {
	if len(r.detectors) == 0 {
		return nil
	}
	for _, d := range r.detectors {
		if d == nil {
			return nil
		}
	}
	return detect.Merge(r.detectors)
}

// Totals sums the shard engines' headline counters into the fleet-wide
// ones (the watermark is the latest shard's): the numbers /healthz prints
// and Publish exposes as the unlabeled stream.* gauges, without merging
// snapshots. Each engine is read under its own lock in turn, so a read
// racing ingest may mix shard generations; at quiesce it equals Snapshot's.
func (r *Router) Totals() stream.Totals {
	var tot stream.Totals
	for _, e := range r.engines {
		t := e.Totals()
		tot.Events += t.Events
		tot.Tickets += t.Tickets
		tot.CrashTickets += t.CrashTickets
		tot.MonitorSamples += t.MonitorSamples
		tot.DroppedOutOfWindow += t.DroppedOutOfWindow
		tot.PredictDistances += t.PredictDistances
		tot.PredictPruned += t.PredictPruned
		tot.Machines += t.Machines
		tot.Incidents += t.Incidents
		if t.Watermark.After(tot.Watermark) {
			tot.Watermark = t.Watermark
		}
	}
	return tot
}

// Publish pushes the shard.* families and, for multi-shard routers, the
// fleet-aggregate gauges the shard engines leave to the coordinator. A
// multi-shard router registers it as Options.Registry's collector, so it
// runs whenever that registry is read; a passthrough router publishes
// nothing (its engine owns the whole surface, exactly as before sharding).
func (r *Router) Publish(reg *obs.Registry) {
	if len(r.engines) == 1 || reg == nil {
		return
	}
	r.pub.Lock()
	defer r.pub.Unlock()

	for i, e := range r.engines {
		if ev := e.Seq(); ev > r.pubEvents[i] {
			reg.Add(r.perShard[i].events, ev-r.pubEvents[i])
			r.pubEvents[i] = ev
		}
		reg.Set(r.perShard[i].queueDepth, float64(len(r.queues[i])))
	}
	tot := r.Totals()
	reg.Set("stream.events", float64(tot.Events))
	reg.Set("stream.tickets", float64(tot.Tickets))
	reg.Set("stream.crash_tickets", float64(tot.CrashTickets))
	reg.Set("stream.machines", float64(tot.Machines))
	reg.Set("stream.incidents", float64(tot.Incidents))
	reg.Set("stream.monitor_samples", float64(tot.MonitorSamples))
	reg.Set("stream.dropped_out_of_window", float64(tot.DroppedOutOfWindow))
	reg.Set("stream.predict_distances", float64(tot.PredictDistances))
	reg.Set("stream.predict_distances_pruned", float64(tot.PredictPruned))
	if !tot.Watermark.IsZero() {
		reg.Set("stream.watermark_unix_seconds", float64(tot.Watermark.UnixNano())/1e9)
	}

	var bytes, grid, rows int64
	monitored := false
	for _, e := range r.engines {
		db := e.Monitor()
		if db == nil {
			continue
		}
		monitored = true
		fp := db.Footprint()
		bytes += fp.Bytes
		grid += int64(fp.GridSamples)
		rows += int64(fp.RowSamples)
	}
	if monitored {
		reg.Set("monitordb.series_bytes", float64(bytes))
		reg.Set("monitordb.grid_samples", float64(grid))
		reg.Set("monitordb.row_samples", float64(rows))
	}

	if len(r.detectors) == len(r.engines) {
		var dt detect.Totals
		missing := false
		for _, d := range r.detectors {
			if d == nil {
				missing = true
				break
			}
			t := d.Totals()
			dt.Raised += t.Raised
			dt.RaisedAnomaly += t.RaisedAnomaly
			dt.Confirmed += t.Confirmed
			dt.Expired += t.Expired
			dt.Active += t.Active
			dt.Machines += t.Machines
		}
		if !missing {
			reg.Set("detect.alerts_active", float64(dt.Active))
			reg.Set("detect.machines", float64(dt.Machines))
			if delta := dt.Raised - r.pubRaised; delta > 0 {
				reg.Add("detect.alerts_raised", delta)
				r.pubRaised = dt.Raised
			}
			if delta := dt.Confirmed + dt.Expired - r.pubClear; delta > 0 {
				reg.Add("detect.alerts_cleared", delta)
				r.pubClear = dt.Confirmed + dt.Expired
			}
			reg.Set("detect.alerts_confirmed", float64(dt.Confirmed))
			reg.Set("detect.alerts_expired", float64(dt.Expired))
			reg.Set("detect.alerts_raised_anomaly", float64(dt.RaisedAnomaly))
		}
	}
}

// Close stops the workers after draining the queues. Applies issued after
// Close fail; Close is idempotent.
func (r *Router) Close() {
	r.op.Lock()
	if r.closed {
		r.op.Unlock()
		return
	}
	r.closed = true
	for _, q := range r.queues {
		close(q)
	}
	r.op.Unlock()
	r.wg.Wait()
}
