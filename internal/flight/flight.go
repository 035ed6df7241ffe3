// Package flight joins identical work in flight: callers that ask for the
// same key while its run is in progress wait for that one run and share
// its outcome instead of repeating the work. The service coalesces its
// model fills, comm calibrations and identical solves with it, and the
// model store its fills across the servers of one process.
package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// errExited is the outcome of a run that neither returned nor panicked
// (it called runtime.Goexit), so its waiters are still woken.
var errExited = errors.New("flight: run exited without returning")

// Call is one run, published once: its value and error are set before
// Done is closed and never change after, so any number of goroutines may
// read the outcome once Done is closed.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCall returns a call whose outcome is not yet published.
func NewCall[V any]() *Call[V] { return &Call[V]{done: make(chan struct{})} }

// Published returns a call born published with the value v.
func Published[V any](v V) *Call[V] {
	c := &Call[V]{done: make(chan struct{}), val: v}
	close(c.done)
	return c
}

// Done returns a channel that is closed once the outcome is published.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Run executes f, publishes its outcome and wakes every waiter. A
// panicking f publishes the panic as its error.
func (c *Call[V]) Run(f func() (V, error)) (V, error) {
	return c.run(f, func(error) {})
}

// run executes f and calls settle with the outcome's error before
// publishing it, however f exits.
func (c *Call[V]) run(f func() (V, error), settle func(error)) (v V, err error) {
	c.err = errExited
	defer func() {
		if r := recover(); r != nil {
			var zero V
			c.val, c.err = zero, fmt.Errorf("flight: run panicked: %v", r)
		}
		settle(c.err)
		close(c.done)
		v, err = c.val, c.err
	}()
	c.val, c.err = f()
	return
}

// Wait blocks until the outcome is published and returns it, or returns
// the context's cause once ctx ends first.
func (c *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, context.Cause(ctx)
	}
}

// Group holds calls by key. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*Call[V]
}

// Join returns the call registered under k and true: the caller joins it
// and waits for its outcome. With no call under k, Join registers a new
// one and returns it with false: the caller leads it and must run it with
// Run or Keep.
func (g *Group[K, V]) Join(k K) (*Call[V], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[k]; ok {
		return c, true
	}
	if g.calls == nil {
		g.calls = make(map[K]*Call[V])
	}
	c := NewCall[V]()
	g.calls[k] = c
	return c, false
}

// Run executes f as c, the call Join registered under k, and publishes its
// outcome. k is freed before the outcome is published, however f exits,
// so a caller that arrives after the run starts a fresh one.
func (g *Group[K, V]) Run(k K, c *Call[V], f func() (V, error)) (V, error) {
	return c.run(f, func(error) { g.forget(k, c) })
}

// Keep is Run for a cache: a successful outcome stays registered under k,
// so every later Join of k returns it published. A failed one frees k
// before it is published, so the next caller retries.
func (g *Group[K, V]) Keep(k K, c *Call[V], f func() (V, error)) (V, error) {
	return c.run(f, func(err error) {
		if err != nil {
			g.forget(k, c)
		}
	})
}

func (g *Group[K, V]) forget(k K, c *Call[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls[k] == c {
		delete(g.calls, k)
	}
}
