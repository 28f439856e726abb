package parallel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoRunsEachIndexOnce checks that every index runs exactly once, for
// worker counts below, at and above the job count.
func TestDoRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 200} {
			runs := make([]atomic.Int32, n)
			Do(n, workers, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("Do(%d, %d): index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestDoSequential checks that with at most one worker — asked for, or
// capped to a single job — the jobs run in index order on the caller's
// goroutine: no goroutine is started.
func TestDoSequential(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -3}, {1, 8}} {
		base := runtime.NumGoroutine()
		var order []int
		Do(c.n, c.workers, func(i int) {
			if g := runtime.NumGoroutine(); g != base {
				t.Errorf("Do(%d, %d): job %d ran with %d goroutines, caller had %d", c.n, c.workers, i, g, base)
			}
			order = append(order, i)
		})
		if want := []int{0, 1, 2, 3, 4}[:c.n]; !slices.Equal(order, want) {
			t.Errorf("Do(%d, %d) ran %v, want %v", c.n, c.workers, order, want)
		}
	}
}

// TestDoWorkersCappedAtJobs checks that n jobs given more than n workers
// all run at once, each on its own goroutine, and that no more than n
// goroutines are started: every job waits until all n are running, and
// the goroutine count seen while they wait is the caller's plus n.
func TestDoWorkersCappedAtJobs(t *testing.T) {
	const n = 4
	base := runtime.NumGoroutine()
	var started sync.WaitGroup
	started.Add(n)
	var most atomic.Int64
	Do(n, 64, func(int) {
		started.Done()
		started.Wait()
		g := int64(runtime.NumGoroutine())
		for cur := most.Load(); g > cur && !most.CompareAndSwap(cur, g); cur = most.Load() {
		}
	})
	if got := most.Load(); got != int64(base+n) {
		t.Errorf("%d jobs over 64 workers saw %d goroutines, want the caller's %d plus %d", n, got, base, n)
	}
}
