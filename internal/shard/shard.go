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
//     elsewhere) so every shard's clock — and its detector's — moves
//     together.
//   - Events with no machine key land on shard 0.
//
// The caller applies each shard's slice through that engine's own group
// commit, the shards in parallel; concurrent posters meet in each engine's
// group commit, which holds them until their batch is applied
// (backpressure, never a drop). One Router call returns only after every
// shard has folded its slice in, so callers keep the POST semantics of the
// single engine: a 2xx response means the batch is applied.
package shard

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"failscope/internal/detect"
	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/par"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

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

	// Registry, when non-nil, receives the shard.* families and — for
	// multi-shard routers — the fleet-aggregate stream.* and detect.*
	// gauges, published when it is read (Publish is its collector).
	Registry *obs.Registry
}

// Router routes event batches across shard engines and merges their reads.
// A single-engine router is a pure passthrough: no labels, no published
// families — byte-for-byte the pre-sharding daemon.
type Router struct {
	engines   []*stream.Engine
	detectors []*detect.Detector
	reg       *obs.Registry
	closed    atomic.Bool

	// scratch pools the per-call routing buffers.
	scratch sync.Pool

	gauges      stream.GaugeNames // fleet stream.* gauge names
	shardEvents []string          // labeled shard.events counter names
}

// errClosed fails every apply issued after Close.
var errClosed = errors.New("shard: router closed")

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
		engines:     opts.Engines,
		detectors:   opts.Detectors,
		reg:         opts.Registry,
		gauges:      stream.NewGaugeNames(""),
		shardEvents: make([]string, n),
	}
	for i := range r.shardEvents {
		r.shardEvents[i] = telemetry.Labeled("shard.events", "shard", strconv.Itoa(i))
	}
	r.scratch.New = func() any {
		return &routeScratch{
			perShard: make([][]stream.Event, n),
			applied:  make([]time.Duration, n),
			errs:     make([]error, n),
		}
	}
	if n > 1 {
		opts.Registry.Collect("shard", r.Publish)
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

// routeScratch is one call's per-shard slices and results.
type routeScratch struct {
	perShard [][]stream.Event
	applied  []time.Duration
	errs     []error
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
	if r.closed.Load() {
		return 0, errClosed
	}
	if len(r.engines) == 1 {
		return r.engines[0].ApplyTimed(events)
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

	par.ForEach(n, n, func(s int) {
		if len(sc.perShard[s]) > 0 {
			sc.applied[s], sc.errs[s] = r.engines[s].ApplyTimed(sc.perShard[s])
		}
	})
	var applied time.Duration
	var err error
	for s := range sc.perShard {
		applied = max(applied, sc.applied[s])
		if err == nil && sc.errs[s] != nil {
			err = fmt.Errorf("shard %d: %w", s, sc.errs[s])
		}
		sc.perShard[s], sc.applied[s], sc.errs[s] = sc.perShard[s][:0], 0, nil
	}
	r.scratch.Put(sc)
	return applied, err
}

// ApplyBatchTimed is ApplyTimed for a batch decoded from the wire. A
// single engine takes the batch whole (Engine.ApplyBatchTimed), so its
// journal can record the body as received; a multi-shard router splits
// the events, which no longer match the body, and applies them as
// ApplyTimed does (durable mode runs one shard).
func (r *Router) ApplyBatchTimed(b *stream.Batch) (time.Duration, error) {
	if len(r.engines) > 1 || r.closed.Load() {
		return r.ApplyTimed(b.Events)
	}
	return r.engines[0].ApplyBatchTimed(b)
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
		tot.Add(e.Totals())
	}
	return tot
}

// Publish pushes, for multi-shard routers, the labeled shard.events
// counters and the fleet sums of the families the shard engines leave to
// the coordinator, each through its package's own publisher
// (stream.Totals, detect.Totals). A multi-shard
// router registers it as Options.Registry's collector, so it runs
// whenever that registry is read; a passthrough router publishes nothing
// (its engine owns the whole surface, exactly as before sharding).
func (r *Router) Publish(reg *obs.Registry) {
	if len(r.engines) == 1 || reg == nil {
		return
	}
	var tot stream.Totals
	for i, e := range r.engines {
		t := e.Totals()
		reg.Counter(r.shardEvents[i]).AdvanceTo(t.Events)
		tot.Add(t)
	}
	tot.Publish(reg, &r.gauges)
	if len(r.detectors) != len(r.engines) {
		return
	}
	var dt detect.Totals
	for _, d := range r.detectors {
		if d == nil {
			return
		}
		dt.Add(d.Totals())
	}
	dt.Publish(reg)
}

// Close makes every later apply fail, at any shard count; an apply already
// running completes. Close is idempotent.
func (r *Router) Close() { r.closed.Store(true) }
