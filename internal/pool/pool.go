// Package pool is the shared bounded worker-pool execution engine behind
// the framework's embarrassingly parallel hot paths: the benchmark sweep
// (core.SweepParallel) and the verification suite (verify.Run). It is
// deliberately small — a counting semaphore plus an indexed fan-out — so
// that every caller gets the same three guarantees:
//
//   - Bounded concurrency: at most Workers tasks run at once, across
//     every concurrent Map call sharing the same Pool, so a suite that
//     fans out from several sections cannot oversubscribe the machine.
//   - Deterministic results: Map writes task i's result into slot i, so
//     the output order equals the input order no matter how the scheduler
//     interleaves the workers.
//   - First-error cancellation: the error of the lowest-indexed failing
//     task is returned (matching what a serial loop would have reported)
//     and the context passed to the remaining tasks is cancelled so they
//     can stop early.
//
// That serial loop, MapSeq, lives in the package's tests, which pin Map to
// it.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Pool bounds the number of concurrently running tasks. The zero value is
// not usable; call New. A single Pool may be shared by any number of
// concurrent Map calls — the bound then applies to their union.
type Pool struct {
	sem chan struct{}
}

// New returns a pool of the given size; workers <= 0 selects
// runtime.GOMAXPROCS(0), the number of CPUs the Go scheduler will use.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Map runs fn(ctx, i) for every i in [0, n) on the pool and returns the
// results in index order. All n tasks are submitted; at most Workers run
// at once. If any task returns an error, the context handed to the tasks
// is cancelled and — after every started task has finished — the error of
// the lowest-indexed failing task is returned together with the partial
// results (slots of failed or skipped tasks hold the zero value). Tasks
// that have not started when the context is cancelled are skipped.
//
// fn must be safe for concurrent invocation; Map itself never invokes it
// concurrently with the same index.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if p == nil {
		return nil, fmt.Errorf("pool: Map needs a pool")
	}
	if n < 0 {
		return nil, fmt.Errorf("pool: negative task count %d", n)
	}
	results := make([]T, n)
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Acquire a worker slot before spawning, so at most Workers
		// goroutines exist at a time; bail out as soon as a failed task
		// cancels the context.
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = context.Cause(ctx)
			continue
		}
		// A failing task cancels strictly before it releases its slot, so
		// this re-check deterministically skips every task submitted after
		// a failure that the acquire raced with.
		if ctx.Err() != nil {
			<-p.sem
			errs[i] = context.Cause(ctx)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
			r, err := fn(ctx, i)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Do runs fn as a single task on the pool: it acquires one worker slot
// (blocking while the pool is saturated), runs fn, and releases the slot.
// It is how long-running callers — e.g. the partition service's sweeps and
// solver calls — share the pool's concurrency bound with Map-based
// fan-outs. If ctx is cancelled before a slot is free, fn is not run and
// the cancellation cause is returned.
func Do(ctx context.Context, p *Pool, fn func(ctx context.Context) error) error {
	if p == nil {
		return fmt.Errorf("pool: Do needs a pool")
	}
	// Check first so an already-cancelled context deterministically skips
	// the task even when a slot happens to be free.
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return context.Cause(ctx)
	}
	defer func() { <-p.sem }()
	return fn(ctx)
}
