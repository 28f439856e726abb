// Package parallel runs a batch of independent jobs over a bounded number
// of goroutines. It is the one worker pool of the engine: the index build
// (shards and scan chunks), the top-k fetch scatter and the snapshot
// section codec all hand it their jobs.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Do runs job(0), …, job(n-1) over at most min(workers, n) goroutines and
// returns once every job has returned. With workers <= 1 the jobs run in
// index order on the caller's goroutine. Jobs record their own results
// and errors, typically into slices indexed by i, so a caller reports
// errors in task order whatever the schedule was.
func Do(n, workers int, job func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
}
