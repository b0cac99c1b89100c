// Package par provides the deterministic worker-pool primitives used to
// parallelize the study pipeline (simulate → mine → classify → join), and
// the ordered pipeline (Ordered) that the dump decoders and WAL replay
// stream through.
//
// Every helper here preserves a single invariant: the set of work items and
// the decomposition of the index space are functions of the input size only,
// never of the worker count. Callers that combine floating-point partial
// results do so per fixed-size block and merge the blocks in index order, so
// the reduction tree — and therefore every bit of the output — is identical
// at Parallelism 1, 2, or GOMAXPROCS.
//
// Concurrency guarantees: the package is data-race free under the Go memory
// model (verified with go test -race); ForEach's workers communicate only
// through an atomic work counter and a WaitGroup, and each index is
// visited exactly once by exactly one worker; Ordered's hand units over
// channels, one owner at a time. Package par uses no sync.Pool — scratch
// buffers are owned by their worker for the duration of a call (callers
// that recycle scratch across calls use internal/mempool, whose free lists
// are deterministic and explicitly bounded, unlike sync.Pool's GC-coupled
// emptying), so there is no cross-call aliasing within a call. A panic
// in a worker is captured and re-raised on the calling goroutine after the
// pool drains.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a Parallelism option to a concrete worker count:
// 0 means GOMAXPROCS, anything below 1 is clamped to 1 (the sequential
// reference path).
func Workers(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// maxGrain caps the number of consecutive indices a worker claims per
// fetch of the shared counter. Contiguous claims keep cache locality for
// slice-shaped work while amortizing the atomic over many items.
const maxGrain = 16

// Stats is the accounting of one pool invocation, consumed by the
// observability layer (obs.Span.AddPool) to attribute cost per stage.
// Timing never feeds back into the work itself, so it cannot perturb
// determinism.
type Stats struct {
	// Workers is the number of goroutines that ran fn: 0 for an empty
	// index space, 1 for the inline sequential path.
	Workers int
	// Items is the number of indices visited.
	Items int
	// Busy is the summed per-worker busy time — the CPU-time estimate of
	// the pool (equal to wall time on the sequential path).
	Busy time.Duration
	// MaxBusy is the busy time of the slowest worker: the pool's
	// wall-clock residency, whose gap to Busy/Workers measures imbalance.
	MaxBusy time.Duration
}

// Add accumulates another pool invocation run after this one.
func (s *Stats) Add(o Stats) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Items += o.Items
	s.Busy += o.Busy
	s.MaxBusy += o.MaxBusy
}

// ForEach calls fn(i) exactly once for every i in [0, n), using up to
// Workers(parallelism) goroutines. With an effective worker count of one it
// runs inline on the caller with zero goroutines — this is the sequential
// reference path — and with n <= 0 it returns immediately without spawning
// anything. The worker count is clamped to n, so no idle goroutines are
// ever launched. fn must not assume any visiting order; for order-sensitive
// reductions use ForEachBlock and merge per-block results in block order.
//
// The returned Stats may be ignored (instrumented call sites feed it to an
// obs.Span); collecting it costs two clock reads per worker.
func ForEach(parallelism, n int, fn func(i int)) Stats {
	if n <= 0 {
		return Stats{}
	}
	w := Workers(parallelism)
	if w > n {
		w = n
	}
	if w <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		busy := time.Since(start)
		return Stats{Workers: 1, Items: n, Busy: busy, MaxBusy: busy}
	}
	// Claims shrink for short index spaces so every worker gets about four:
	// at the full grain, one worker could claim all of fewer than 2·16
	// indices while the others found nothing left.
	grain := min(maxGrain, max(1, n/(4*w)))
	var next atomic.Int64
	var panicked atomic.Pointer[panicValue]
	var wg sync.WaitGroup
	busy := make([]time.Duration, w)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			start := time.Now()
			defer func() { busy[k] = time.Since(start) }()
			defer capturePanic(&panicked)
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}(k)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.v)
	}
	st := Stats{Workers: w, Items: n}
	for _, b := range busy {
		st.Busy += b
		if b > st.MaxBusy {
			st.MaxBusy = b
		}
	}
	return st
}

// BlockSize is the fixed block width used by Blocks/ForEachBlock. It is a
// property of the index space, not of the worker count, so block boundaries
// — and any per-block floating-point partial sums merged in block order —
// are identical at every parallelism level.
const BlockSize = 256

// Blocks returns the number of fixed-size blocks covering [0, n).
func Blocks(n int) int {
	return (n + BlockSize - 1) / BlockSize
}

// ForEachBlock calls fn(b, lo, hi) exactly once for every block b covering
// [lo, hi) ⊂ [0, n), with block boundaries determined solely by n. Callers
// accumulate per-block partials indexed by b and fold them sequentially in
// increasing b afterwards, which fixes the floating-point reduction order
// independent of how blocks were scheduled across workers. The returned
// Stats counts the n underlying items, not the blocks.
func ForEachBlock(parallelism, n int, fn func(b, lo, hi int)) Stats {
	st := ForEach(parallelism, Blocks(n), func(b int) {
		lo := b * BlockSize
		hi := lo + BlockSize
		if hi > n {
			hi = n
		}
		fn(b, lo, hi)
	})
	st.Items = n
	return st
}

type panicValue struct{ v any }

func capturePanic(slot *atomic.Pointer[panicValue]) {
	if v := recover(); v != nil {
		slot.CompareAndSwap(nil, &panicValue{v: v})
	}
}
