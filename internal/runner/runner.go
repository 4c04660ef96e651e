// Package runner is the repository's shared parallel execution engine:
// a bounded worker pool that fans an index space out over goroutines
// and merges results back in deterministic index order.
//
// Every parallel path in the repository (wave-level simulation sharding
// in internal/sim, the experiment registry fan-out in
// internal/experiments, the aim.RunExperiments API) goes through this
// package so the concurrency discipline lives in one place: worker
// counts are bounded by GOMAXPROCS, cancellation is cooperative via
// context, and output ordering never depends on goroutine scheduling.
// Determinism therefore only requires that the work items themselves
// are independent — which the per-shard xrand streams guarantee.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: n > 0 is used as given,
// anything else (0, negative) means "one worker per available CPU"
// (GOMAXPROCS). The result is additionally clamped to jobs when the
// index space is smaller than the pool.
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (resolved via Workers). It returns the first error in index order,
// after all in-flight work has drained. Cancellation of ctx stops new
// indices from being dispatched and is reported as ctx.Err() unless an
// fn error takes precedence. workers <= 0 means GOMAXPROCS. With
// workers == 1 the indices run on the calling goroutine in order,
// with zero scheduling involved.
func Do(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	done := make(chan struct{})
	var cancelOnce sync.Once
	cancel := func() { cancelOnce.Do(func() { close(done) }) }

	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}

	interrupted := false
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			interrupted = true
			break dispatch
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	// First error in index order keeps failure reporting deterministic
	// no matter which worker hit it first.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Report cancellation only when it actually skipped work: if every
	// index was dispatched and ran clean, the results are complete and
	// a context that expired in the meantime must not discard them
	// (the serial path behaves the same way).
	if interrupted {
		return ctx.Err()
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on a bounded pool and returns
// the results indexed by i — the deterministic merge order. On error
// the partial results are discarded and the first error (in index
// order) is returned. workers <= 0 means GOMAXPROCS.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Collect is Map for infallible work: fn cannot fail and cancellation
// is not observed. It exists for hot paths like the per-wave
// simulation shards, where the work is pure computation.
func Collect[T any](n, workers int, fn func(i int) T) []T {
	out, _ := Map(context.Background(), n, workers, func(i int) (T, error) {
		return fn(i), nil
	})
	return out
}
