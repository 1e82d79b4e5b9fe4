// Package fanout is the module's one fan-out: it spreads per-switch work
// (§III-C checks each switch on its own) over goroutines, and no other
// package starts one.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on count(n, workers) workers, the
// calling goroutine among them; fn writes only what its index owns. Each
// worker claims the next index, so a slow index holds up only its own
// worker. After an error no worker claims a new index, and Run returns the
// lowest failing index's error: indices are claimed in ascending order and a
// claimed one always runs, so it is the error a serial loop stops at.
func Run(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	w := count(n, workers)
	wg.Add(w)
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if errs[i] = fn(i); errs[i] != nil {
				next.Store(int64(n)) // every later claim lands past the end
			}
		}
	}
	for range w - 1 {
		go work()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// count resolves the workers of a fan-out over n items: a count ≤ 0 selects
// one per P — the work is CPU-bound, so a worker the scheduler cannot run
// beside the others only costs its goroutine — and never more than n.
func count(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}
