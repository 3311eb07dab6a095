// Package par runs independent work items on a bounded pool of goroutines.
package par

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Each runs fn(0..n-1) on at most workers goroutines (a plain loop when
// workers <= 1) and returns every error joined in index order. Callers
// write results into index slots and reduce them in a fixed order
// afterwards, which keeps every aggregate invariant in the worker count.
func Each(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers = min(workers, n); workers <= 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
		return errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
