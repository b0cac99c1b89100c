package mempool

import (
	"sync"
	"testing"

	"failscope/internal/obs"
)

// TestReuse pins the deterministic recycle contract: a Put followed by a
// Get returns the very same object, and the counters account for it.
func TestReuse(t *testing.T) {
	p := New("test.reuse", 4, func() *[8]int { return new([8]int) }, nil)
	a := p.Get()
	if st := p.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first Get: %+v", st)
	}
	p.Put(a)
	b := p.Get()
	if a != b {
		t.Fatalf("Get after Put returned a different object")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Drops != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestCapacityBound verifies overflowing Puts drop instead of growing the
// free list without bound.
func TestCapacityBound(t *testing.T) {
	p := New("test.bound", 2, func() int { return 7 }, nil)
	p.Put(1)
	p.Put(2)
	p.Put(3) // over capacity: dropped
	st := p.Stats()
	if st.Puts != 2 || st.Drops != 1 {
		t.Fatalf("counters: %+v", st)
	}
	// LIFO order: last accepted Put comes back first.
	if got := p.Get(); got != 2 {
		t.Fatalf("Get = %d, want 2", got)
	}
}

// intSlices is a pool of slice buffers whose reset truncates on Put.
func intSlices(name string, capacity int) *Pool[[]int] {
	return New(name, capacity,
		func() []int { return make([]int, 0, 4) },
		func(buf []int) []int { return buf[:0] })
}

// TestSlicePoolResets verifies recycled slice buffers come back empty but
// keep their grown capacity.
func TestSlicePoolResets(t *testing.T) {
	p := intSlices("test.slice", 2)
	buf := p.Get()
	for i := 0; i < 100; i++ {
		buf = append(buf, i)
	}
	p.Put(buf)
	got := p.Get()
	if len(got) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(got))
	}
	if cap(got) < 100 {
		t.Fatalf("recycled buffer lost its capacity: cap %d", cap(got))
	}
}

// TestConcurrentGetPut exercises the pool from many goroutines; run under
// -race this is the pool's data-race regression test.
func TestConcurrentGetPut(t *testing.T) {
	p := intSlices("test.race", 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				buf := p.Get()
				buf = append(buf, g, i)
				if len(buf) != 2 {
					t.Errorf("buffer not reset: len %d", len(buf))
					return
				}
				p.Put(buf)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lost Gets: %+v", st)
	}
}

// TestPublish verifies the counters land in the metrics registry under the
// mempool.<name>.* gauges.
func TestPublish(t *testing.T) {
	p := New("test.publish", 2, func() int { return 0 }, nil)
	p.Put(p.Get())
	p.Get()
	reg := obs.NewRegistry()
	Publish(reg)
	snap := reg.Snapshot()
	if snap["mempool.test.publish.hits"] != 1 {
		t.Fatalf("hits gauge = %v, want 1", snap["mempool.test.publish.hits"])
	}
	if snap["mempool.test.publish.misses"] != 1 {
		t.Fatalf("misses gauge = %v, want 1", snap["mempool.test.publish.misses"])
	}
	if snap["mempool.test.publish.puts"] != 1 {
		t.Fatalf("puts gauge = %v, want 1", snap["mempool.test.publish.puts"])
	}
}
