package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

// TestForEachVisitsEachIndexOnce checks the exactly-once contract at several
// worker counts and sizes that straddle grain boundaries.
func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, maxGrain - 1, maxGrain, maxGrain + 1, 5*maxGrain + 3, 1000} {
			visits := make([]int32, n)
			ForEach(workers, n, func(i int) {
				atomic.AddInt32(&visits[i], 1)
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForEachSpreadsShortRanges: with two workers and two indices, each
// worker must run one. fn(0) and fn(1) meet at a barrier neither passes
// alone, so a worker that claims both indices waits out the timeout.
func TestForEachSpreadsShortRanges(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() {
		arrived.Wait()
		close(met)
	}()
	ForEach(2, 2, func(i int) {
		arrived.Done()
		select {
		case <-met:
		case <-time.After(5 * time.Second):
			t.Errorf("fn(%d) met no other worker: one worker claimed both indices", i)
		}
	})
}

// TestForEachBlockBoundariesFixed asserts the block decomposition is a
// function of n only: the same (b, lo, hi) triples at every worker count.
func TestForEachBlockBoundariesFixed(t *testing.T) {
	const n = 3*BlockSize + 17
	collect := func(workers int) [][3]int {
		out := make([][3]int, Blocks(n))
		ForEachBlock(workers, n, func(b, lo, hi int) {
			out[b] = [3]int{b, lo, hi}
		})
		return out
	}
	ref := collect(1)
	for _, workers := range []int{2, 4, 16} {
		got := collect(workers)
		for b := range ref {
			if got[b] != ref[b] {
				t.Fatalf("workers=%d: block %d = %v, want %v", workers, b, got[b], ref[b])
			}
		}
	}
	last := ref[len(ref)-1]
	if last[2] != n {
		t.Fatalf("last block ends at %d, want %d", last[2], n)
	}
}

// TestForEachBlockOrderedSum demonstrates the deterministic float reduction
// pattern: per-block partials merged in block order give bit-identical
// totals at every parallelism level.
func TestForEachBlockOrderedSum(t *testing.T) {
	const n = 10_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+3)
	}
	sum := func(workers int) float64 {
		partial := make([]float64, Blocks(n))
		ForEachBlock(workers, n, func(b, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			partial[b] = s
		})
		total := 0.0
		for _, p := range partial {
			total += p
		}
		return total
	}
	ref := sum(1)
	for _, workers := range []int{2, 3, 8} {
		if got := sum(workers); got != ref {
			t.Fatalf("workers=%d: sum %v differs from sequential %v", workers, got, ref)
		}
	}
}

// TestForEachPanicPropagates verifies a worker panic is re-raised on the
// caller after the pool drains, not lost in a goroutine.
func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForEach(workers, 100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: ForEach returned without panicking", workers)
		}()
	}
}

// TestForEachDegenerate pins the degenerate-input contract: an empty index
// space spawns nothing, a single item runs inline, and a worker request
// larger than n is clamped so no idle goroutines are ever launched.
func TestForEachDegenerate(t *testing.T) {
	cases := []struct {
		name        string
		workers, n  int
		wantWorkers int
	}{
		{"n=0", 8, 0, 0},
		{"n=0 sequential", 1, 0, 0},
		{"n negative", 4, -3, 0},
		{"n=1", 8, 1, 1},
		{"n=1 sequential", 1, 1, 1},
		{"workers>n", 64, 5, 5},
		{"workers=n", 3, 3, 3},
		{"workers<n", 2, 100, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var visited atomic.Int64
			st := ForEach(tc.workers, tc.n, func(i int) {
				if i < 0 || i >= tc.n {
					t.Errorf("index %d outside [0,%d)", i, tc.n)
				}
				visited.Add(1)
			})
			wantItems := tc.n
			if wantItems < 0 {
				wantItems = 0
			}
			if int(visited.Load()) != wantItems {
				t.Fatalf("visited %d indices, want %d", visited.Load(), wantItems)
			}
			if st.Workers != tc.wantWorkers {
				t.Fatalf("Stats.Workers = %d, want %d", st.Workers, tc.wantWorkers)
			}
			if st.Items != wantItems {
				t.Fatalf("Stats.Items = %d, want %d", st.Items, wantItems)
			}
			if wantItems == 0 && (st.Busy != 0 || st.MaxBusy != 0) {
				t.Fatalf("empty pool reported busy time %v/%v", st.Busy, st.MaxBusy)
			}
		})
	}
}

// TestForEachBlockDegenerate mirrors the degenerate cases for the block
// decomposition: no blocks for n<=0, one block for n=1, clamped workers.
func TestForEachBlockDegenerate(t *testing.T) {
	cases := []struct {
		name       string
		workers, n int
		wantBlocks int
	}{
		{"n=0", 8, 0, 0},
		{"n=1", 8, 1, 1},
		{"workers>blocks", 64, BlockSize + 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var blocks atomic.Int64
			st := ForEachBlock(tc.workers, tc.n, func(b, lo, hi int) {
				blocks.Add(1)
				if lo >= hi {
					t.Errorf("block %d empty: [%d,%d)", b, lo, hi)
				}
			})
			if int(blocks.Load()) != tc.wantBlocks {
				t.Fatalf("ran %d blocks, want %d", blocks.Load(), tc.wantBlocks)
			}
			if st.Items != tc.n {
				t.Fatalf("Stats.Items = %d, want %d", st.Items, tc.n)
			}
			if st.Workers > tc.wantBlocks {
				t.Fatalf("Stats.Workers = %d exceeds block count %d", st.Workers, tc.wantBlocks)
			}
		})
	}
}

// TestForEachStatsBusy sanity-checks the busy-time accounting: a parallel
// pool's summed busy time covers its workers and MaxBusy never exceeds it.
func TestForEachStatsBusy(t *testing.T) {
	st := ForEach(4, 1000, func(i int) {
		_ = make([]byte, 64) // do a sliver of real work
	})
	if st.Workers < 1 {
		t.Fatalf("Stats.Workers = %d, want >= 1", st.Workers)
	}
	if st.Busy <= 0 {
		t.Fatalf("Stats.Busy = %v, want > 0", st.Busy)
	}
	if st.MaxBusy > st.Busy {
		t.Fatalf("MaxBusy %v exceeds summed Busy %v", st.MaxBusy, st.Busy)
	}
}

func TestForEachSequentialInline(t *testing.T) {
	// With one worker the loop must run on the calling goroutine so that
	// callers may use non-thread-safe state in fn.
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential path visited %v, want ascending order", order)
		}
	}
}
