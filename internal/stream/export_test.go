package stream

import (
	"runtime"
	"sync"
)

// ApplyGroup posts batches from concurrent ApplyBatchTimed callers that
// share one commit group, in slice order: the first caller leads, and
// each other one joins the leader's queue before the leader may take the
// engine lock. It returns each caller's error.
func ApplyGroup(e *Engine, batches []*Batch) []error {
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	e.mu.Lock()
	for i, b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.ApplyBatchTimed(b)
		}()
		for !groupHolds(e, i) {
			runtime.Gosched()
		}
	}
	e.mu.Unlock()
	wg.Wait()
	return errs
}

// groupHolds reports whether a leader has claimed the next commit group
// and n followers wait in its queue.
func groupHolds(e *Engine, n int) bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return e.leading && len(e.queue) == n
}
