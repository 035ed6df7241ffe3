package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// adaptiveWindow adjusts the batch window to the observed partition
// traffic: under load (requests arriving within a couple of windows of
// each other) the full window is worth waiting out because followers will
// join; when traffic is idle, waiting only adds latency to a request that
// will batch with nobody, so the window shrinks to zero. The controller
// tracks an exponentially weighted moving average of inter-arrival gaps:
//
//	ewma ≤ 2·max → full window (busy)
//	ewma ≥ 4·max → no window  (idle)
//	in between   → linear ramp
//
// A server that has seen no partition traffic yet counts as busy — the
// conservative default keeps batching effective from the first burst.
type adaptiveWindow struct {
	mu   sync.Mutex
	max  time.Duration // configured window (the upper bound)
	ewma time.Duration // smoothed inter-arrival gap; 0 = busy
	last time.Time     // previous arrival; zero = none yet
}

// observe records one partition-request arrival and returns the batch
// window that request should wait, in [0, max].
func (a *adaptiveWindow) observe(now time.Time) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.last.IsZero() {
		gap := now.Sub(a.last)
		if gap < 0 {
			gap = 0
		}
		a.ewma = (a.ewma + gap) / 2
	}
	a.last = now
	busy, idle := 2*a.max, 4*a.max
	switch {
	case a.ewma <= busy:
		return a.max
	case a.ewma >= idle:
		return 0
	default:
		return time.Duration(float64(a.max) * float64(idle-a.ewma) / float64(idle-busy))
	}
}

// call is one in-flight computation shared by every caller of its key: a
// cache fill, a comm calibration, a batched solve. val and err are read,
// shared, only after done is closed. A panicking run publishes the panic
// as its error, so no waiter blocks on it and no key keeps its result.
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newCall[T any]() *call[T] { return &call[T]{done: make(chan struct{})} }

// run executes f once, publishes its outcome and wakes every waiter.
func (c *call[T]) run(f func() (T, error)) (T, error) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("service: run panicked: %v", r)
			}
		}()
		c.val, c.err = f()
	}()
	close(c.done)
	return c.val, c.err
}

// wait blocks until the call is published or ctx (a shard's life) ends.
func (c *call[T]) wait(ctx context.Context) (T, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero T
		return zero, fmt.Errorf("service: shutting down: %w", ctx.Err())
	}
}

// BatchKey fingerprints everything that determines a partition result:
// the operation, the tenant, the resolved model cache keys in device
// order, the algorithm, and the problem size. Requests agreeing on all of
// these are answered by a single solver call. It is exported so the perf
// harness (internal/bench) can track its cost.
func BatchKey(op, tenant string, keys []ModelKey, algorithm string, D int, commTag string) string {
	var b strings.Builder
	b.Grow(64 + len(op) + len(tenant) + len(algorithm) + len(commTag) + 48*len(keys))
	b.WriteString(op)
	b.WriteByte('|')
	b.WriteString(tenant)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k.String())
	}
	b.WriteByte('|')
	b.WriteString(algorithm)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(D))
	// Comm-aware and compute-only requests over the same models solve
	// different balance problems and must never share a batch.
	b.WriteByte('|')
	b.WriteString(commTag)
	return b.String()
}

// batched coalesces identical expensive operations that arrive within the
// server's batch window into a single run (the serving-layer analogue of
// request batching in an inference stack: identical work admitted together
// is computed once). The first request for a key becomes the batch leader:
// it registers the batch, sleeps out the window while followers join, then
// invokes run exactly once and publishes the result to everyone, a
// panicking run's as its error.
func (sh *shard) batched(key string, run func() (any, error)) (any, error) {
	if sh.batchWindow <= 0 {
		return run()
	}
	window := sh.window.observe(time.Now())
	sh.batchMu.Lock()
	if c, ok := sh.batches[key]; ok {
		sh.batchMu.Unlock()
		sh.stats.BatchJoined.Add(1)
		return c.wait(sh.ctx)
	}
	if window <= 0 {
		// Idle traffic: nobody will join within any window, so don't make
		// this request pay one. In-flight batches are still joined above.
		sh.batchMu.Unlock()
		sh.stats.BatchWindowSkips.Add(1)
		return run()
	}
	c := newCall[any]()
	sh.batches[key] = c
	sh.batchMu.Unlock()

	// Leader: let followers pile on for one window, then close the batch
	// to new joiners *before* running so late arrivals start a fresh one.
	select {
	case <-time.After(window):
	case <-sh.ctx.Done():
	}
	sh.batchMu.Lock()
	delete(sh.batches, key)
	sh.batchMu.Unlock()
	return c.run(run)
}
