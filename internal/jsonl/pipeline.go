package jsonl

import (
	"bufio"
	"sync"
	"sync/atomic"
	"time"

	"failscope/internal/par"
)

// BlockLines is how many lines the dump decoders pack into one block:
// enough to amortize a block's channel hand-offs and clock reads over
// hundreds of parses, few enough that the workers+2 blocks in flight stay
// a fraction of a megabyte. The size was picked by measurement: on the
// small study (2 vCPUs), failanalyze's peak RSS rose ~7% over sequential
// decoding at 512 lines and at 128, ~2% at 256. Peak RSS follows where GC
// cycles fall, not block bytes alone, so re-measure before changing it.
const BlockLines = 256

// block is a run of consecutive non-blank lines of one stream, in file
// order, and the records a worker parsed from them. Records below errAt
// are valid; err, when set, is the parse error of line errAt.
type block[R any] struct {
	buf   []byte // the lines' bytes, back to back
	ends  []int  // ends[i] is where line i ends in buf
	nums  []int  // nums[i] is line i's 1-based line number
	recs  []R
	errAt int
	err   error
	done  chan struct{} // a worker signals here once recs are parsed
}

// fill packs the next non-blank lines of sc into b, up to n of them, and
// reports whether sc may yield more. num is the running line number.
func (b *block[R]) fill(sc *bufio.Scanner, num *int, n int) bool {
	if b.ends == nil {
		// 128 bytes a line is about a monitoring record; longer lines
		// grow buf once or twice, and it keeps that size for reuse.
		b.buf = make([]byte, 0, 128*n)
		b.ends, b.nums = make([]int, 0, n), make([]int, 0, n)
	}
	b.buf, b.ends, b.nums = b.buf[:0], b.ends[:0], b.nums[:0]
	for len(b.nums) < n {
		if !sc.Scan() {
			return false
		}
		*num++
		if line := sc.Bytes(); len(line) > 0 {
			b.buf = append(b.buf, line...)
			b.ends = append(b.ends, len(b.buf))
			b.nums = append(b.nums, *num)
		}
	}
	return true
}

// parseBlock runs parse over b's lines with one worker's state s, stopping
// at the first error, and returns the time it took.
func parseBlock[R, S any](b *block[R], s *S, parse func(s *S, line []byte, num int, rec *R) error) time.Duration {
	start := time.Now()
	if cap(b.recs) < len(b.nums) {
		b.recs = make([]R, len(b.nums))
	}
	b.recs = b.recs[:len(b.nums)]
	b.errAt, b.err = len(b.nums), nil
	lo := 0
	for i, hi := range b.ends {
		if err := parse(s, b.buf[lo:hi], b.nums[i], &b.recs[i]); err != nil {
			b.errAt, b.err = i, err
			break
		}
		lo = hi
	}
	return time.Since(start)
}

// foldBlock hands b's records to fold in order: the first error, fold's
// or the block's parse error, ends it.
func foldBlock[R any](b *block[R], fold func(num int, rec *R) error) error {
	for i := 0; i < b.errAt; i++ {
		if err := fold(b.nums[i], &b.recs[i]); err != nil {
			return err
		}
	}
	return b.err
}

// Decode is the ordered block pipeline behind the dump decoders. It packs
// the non-blank lines sc yields into blocks of blockLines, parses each
// block on one of workers goroutines — parse fills rec from one line,
// using the worker's own state s, which persists across that worker's
// blocks — and hands every record to fold strictly in file order, on the
// calling goroutine. So the first error in file order wins, whether parse
// or fold raised it, and reading stops soon after it: no more than
// workers+2 blocks are ever in flight.
//
// With workers <= 1, parse and fold run inline with no goroutines: that is
// the sequential path. Decode returns nil once sc is exhausted; the caller
// then checks sc.Err. The stats count the records folded and the workers'
// parse time.
func Decode[R, S any](sc *bufio.Scanner, workers, blockLines int,
	parse func(s *S, line []byte, num int, rec *R) error,
	fold func(num int, rec *R) error) (par.Stats, error) {
	if workers <= 1 {
		return decodeInline(sc, blockLines, parse, fold)
	}
	st := par.Stats{Workers: workers}
	inFlight := workers + 2
	// Every channel holds at most the inFlight blocks that exist, so no
	// send blocks: the reader waits only on free, for a recycled block.
	free := make(chan *block[R], inFlight)
	work := make(chan *block[R], inFlight)
	order := make(chan *block[R], inFlight)
	for i := 0; i < inFlight; i++ {
		free <- &block[R]{done: make(chan struct{}, 1)}
	}
	var stop atomic.Bool

	go func() {
		defer close(order)
		defer close(work)
		num := 0
		for more := true; more && !stop.Load(); {
			b := <-free
			more = b.fill(sc, &num, blockLines)
			work <- b
			order <- b
		}
	}()

	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			var s S
			for b := range work {
				if !stop.Load() {
					busy[k] += parseBlock(b, &s, parse)
				}
				b.done <- struct{}{}
			}
		}(k)
	}

	var err error
	for b := range order {
		<-b.done
		if err == nil {
			st.Items += b.errAt
			if err = foldBlock(b, fold); err != nil {
				stop.Store(true)
			}
		}
		free <- b
	}
	wg.Wait()
	for _, d := range busy {
		st.Busy += d
		st.MaxBusy = max(st.MaxBusy, d)
	}
	return st, err
}

// decodeInline is Decode's sequential path: one block, filled, parsed and
// folded in turn on the calling goroutine.
func decodeInline[R, S any](sc *bufio.Scanner, blockLines int,
	parse func(s *S, line []byte, num int, rec *R) error,
	fold func(num int, rec *R) error) (par.Stats, error) {
	st := par.Stats{Workers: 1}
	var (
		b   block[R]
		s   S
		num int
		err error
	)
	for more := true; more && err == nil; {
		more = b.fill(sc, &num, blockLines)
		st.Busy += parseBlock(&b, &s, parse)
		st.Items += b.errAt
		err = foldBlock(&b, fold)
	}
	st.MaxBusy = st.Busy
	return st, err
}
