package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// run is the engine's one batch executor. It calls fn(i) for every i in
// [0, n) on min(GOMAXPROCS, n) workers, inline on the calling goroutine
// when that is 1, and returns once every call has returned, so no
// goroutine it starts outlives it. Workers claim indices from one shared
// counter. errs[i] is nil when fn(i) returned, "panic: <value>" when it
// panicked, and ctx's error when ctx was done before item i started.
// Callers that quarantine tell the last two apart by comparing with
// ctx.Err().
func run(ctx context.Context, n int, fn func(i int)) []error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = try(func() { fn(i) })
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		work()
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return errs
}

// try runs fn, recovering a panic into its error.
func try(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// raise re-raises the lowest failing item's error on the calling
// goroutine, where the caller can recover it: the fault rule of the batch
// methods whose results have no slot for an item's error (ProcessAll,
// PredictAll). It runs once every worker has stopped.
func raise(errs []error) {
	for i, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("pipeline: item %d: %v", i, err))
		}
	}
}
