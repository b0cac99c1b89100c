package par

import (
	"sync"
	"sync/atomic"
	"time"
)

// unit is one slot of Ordered's bounded free list: the caller's unit of
// work, the signal that a worker is done with it, and a panic its work
// raised, kept until the fold reaches the unit in order.
type unit[U any] struct {
	v        U
	done     chan struct{}
	panicked atomic.Pointer[panicValue]
}

// Ordered is the ordered pipeline behind the dump decoders and WAL
// replay. One reader goroutine calls read to fill successive units in
// stream order, until it reports there is no more; workers goroutines call
// work on the units — each with its own state s, which persists across
// that worker's units — and the calling goroutine hands every unit to
// fold strictly in read order. So fold sees exactly what a sequential
// read, work, fold loop would: the first error fold returns ends the
// pipeline and is returned, and reading stops soon after it. Only
// workers+2 units ever exist; each is recycled once folded, so a unit may
// keep its buffers for the next read.
//
// A panic in read, work or fold is re-raised on the caller once the
// pipeline has drained, at the point in stream order where a sequential
// loop would have raised it; no goroutine outlives the call.
//
// With workers <= 1, read, work and fold run in turn on the caller with no
// goroutines: that is the sequential path. The stats count the units
// folded and the workers' time in work.
func Ordered[U, S any](workers int, read func(u *U) (more bool), work func(s *S, u *U), fold func(u *U) error) (Stats, error) {
	if workers <= 1 {
		return orderedInline(read, work, fold)
	}
	inFlight := workers + 2
	// Every channel holds at most the inFlight units that exist, so no
	// send blocks: the reader waits only on free, for a recycled unit.
	free := make(chan *unit[U], inFlight)
	todo := make(chan *unit[U], inFlight)
	order := make(chan *unit[U], inFlight)
	for i := 0; i < inFlight; i++ {
		free <- &unit[U]{done: make(chan struct{}, 1)}
	}
	var (
		stop      atomic.Bool // set by the caller only, once it folds no more
		readPanic atomic.Pointer[panicValue]
		wg        sync.WaitGroup
	)

	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(todo)
		defer capturePanic(&readPanic)
		for more := true; more && !stop.Load(); {
			u := <-free
			more = read(&u.v)
			todo <- u
			order <- u
		}
	}()

	busy := make([]time.Duration, workers)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			var s S
			for u := range todo {
				// A unit read after the fold stopped is never folded.
				if !stop.Load() {
					busy[k] += runUnit(u, &s, work)
				}
				u.done <- struct{}{}
			}
		}(k)
	}

	st := Stats{Workers: workers}
	var (
		err      error
		panicked *panicValue
	)
	func() {
		// On every way out, fold's own panic included: stop the reader,
		// hand back each unit still in flight, and wait for every
		// goroutine.
		defer func() {
			stop.Store(true)
			for u := range order {
				<-u.done
				free <- u
			}
			wg.Wait()
		}()
		for u := range order {
			<-u.done
			if panicked = u.panicked.Load(); panicked != nil {
				return
			}
			st.Items++
			if err = fold(&u.v); err != nil {
				return
			}
			free <- u
		}
		// The reader's panic comes after every unit it handed over.
		panicked = readPanic.Load()
	}()
	if panicked != nil {
		panic(panicked.v)
	}
	for _, d := range busy {
		st.Busy += d
		st.MaxBusy = max(st.MaxBusy, d)
	}
	return st, err
}

// runUnit calls work on u, keeping any panic it raises in u, and returns
// the time it took.
func runUnit[U, S any](u *unit[U], s *S, work func(s *S, u *U)) (d time.Duration) {
	start := time.Now()
	defer capturePanic(&u.panicked)
	work(s, &u.v)
	return time.Since(start)
}

// orderedInline is Ordered's sequential path: one unit, read, worked and
// folded in turn on the calling goroutine.
func orderedInline[U, S any](read func(u *U) bool, work func(s *S, u *U), fold func(u *U) error) (Stats, error) {
	st := Stats{Workers: 1}
	var (
		u   U
		s   S
		err error
	)
	for more := true; more && err == nil; {
		more = read(&u)
		start := time.Now()
		work(&s, &u)
		st.Busy += time.Since(start)
		st.Items++
		err = fold(&u)
	}
	st.MaxBusy = st.Busy
	return st, err
}
