// Package mempool provides the typed free lists behind the daemon's
// allocation discipline: its hot paths recycle their buffers through a
// Pool instead of allocating per batch. Three pools exist: stream.batch
// (wire-decode batches), stream.applyreq (group-commit waiter records) and
// durable.walenc (WAL encode buffers).
//
// The pools are deliberately not sync.Pool: a bounded, mutex-guarded stack
// keeps reuse deterministic (a Put followed by a Get returns the same
// object, which the reuse tests pin) and lets every pool keep exact
// hit/miss/put/drop counters. The stack is bounded so a burst cannot pin
// memory forever; overflowing Puts drop their buffer to the GC.
//
// Pooling is an optimization, never a semantic. The ownership rules are in
// DESIGN.md §11: a buffer obtained from Get is owned exclusively by the
// getter until Put, Put transfers ownership back to the pool, and nothing
// reachable from a pooled buffer may be retained by a consumer (consumers
// copy, as the stream engine does).
package mempool

import (
	"sync"
	"sync/atomic"

	"failscope/internal/obs"
)

// Stats is a point-in-time snapshot of one pool's counters.
type Stats struct {
	Name   string
	Hits   int64 // Gets served from the free list
	Misses int64 // Gets that constructed a fresh value
	Puts   int64 // Puts accepted onto the free list
	Drops  int64 // Puts discarded (pool full)
}

// counters is the registry-facing face of a pool; the generic Pool[T]
// cannot itself live in a heterogeneous registry slice.
type counters interface {
	Stats() Stats
}

var (
	regMu    sync.Mutex
	registry []counters
)

func register(c counters) {
	regMu.Lock()
	registry = append(registry, c)
	regMu.Unlock()
}

// Snapshot returns the stats of every pool constructed so far, in
// construction order.
func Snapshot() []Stats {
	regMu.Lock()
	pools := append([]counters(nil), registry...)
	regMu.Unlock()
	out := make([]Stats, len(pools))
	for i, p := range pools {
		out[i] = p.Stats()
	}
	return out
}

// Publish writes every pool's counters into the metrics registry as
// "mempool.<name>.hits" / ".misses" / ".puts" / ".drops" gauges. Safe on a
// nil registry (the gauges are no-ops). clikit calls this once at
// end-of-run so RunReports carry the pool hit rates.
func Publish(reg *obs.Registry) {
	for _, st := range Snapshot() {
		reg.Gauge("mempool." + st.Name + ".hits").Set(float64(st.Hits))
		reg.Gauge("mempool." + st.Name + ".misses").Set(float64(st.Misses))
		reg.Gauge("mempool." + st.Name + ".puts").Set(float64(st.Puts))
		reg.Gauge("mempool." + st.Name + ".drops").Set(float64(st.Drops))
	}
}

// Pool is a bounded free list of T values. The zero value is not usable;
// construct with New.
type Pool[T any] struct {
	name    string
	newFn   func() T
	resetFn func(T) T

	mu   sync.Mutex
	free []T

	hits, misses, puts, drops atomic.Int64
}

// New returns a pool named name holding at most capacity free values.
// newFn constructs a value on a miss; resetFn (optional) prepares a
// recycled value on Put — truncating slices, clearing state — and its
// return value is what the free list stores.
func New[T any](name string, capacity int, newFn func() T, resetFn func(T) T) *Pool[T] {
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool[T]{name: name, newFn: newFn, resetFn: resetFn}
	p.free = make([]T, 0, capacity)
	register(p)
	return p
}

// Get returns a value from the free list, or a freshly constructed one.
// The caller owns the value exclusively until it calls Put.
func (p *Pool[T]) Get() T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		var zero T
		p.free[n-1] = zero // do not pin the value if the slot is never refilled
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return v
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return p.newFn()
}

// Put returns a value to the pool. The caller must not touch v (or
// anything reachable from it) afterwards. Puts beyond the pool's capacity
// drop the value.
func (p *Pool[T]) Put(v T) {
	if p.resetFn != nil {
		v = p.resetFn(v)
	}
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, v)
		p.mu.Unlock()
		p.puts.Add(1)
		return
	}
	p.mu.Unlock()
	p.drops.Add(1)
}

// Stats snapshots the pool's counters.
func (p *Pool[T]) Stats() Stats {
	return Stats{
		Name:   p.name,
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Puts:   p.puts.Load(),
		Drops:  p.drops.Load(),
	}
}
