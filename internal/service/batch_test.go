package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestBatchedPanicWakesFollowers: a batch leader whose run panics must
// still publish the batch. Every follower that joined it returns the
// recovered panic as an error instead of blocking until the server shuts
// down.
func TestBatchedPanicWakesFollowers(t *testing.T) {
	svc, err := New(Config{BatchWindow: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	const key, followers = "test|panicking-run", 4
	run := func() (any, error) { panic("boom") }
	errs := make(chan error, followers+1)
	go func() { errs <- batchedRecovering(svc, key, run) }()

	// Followers join once the leader has registered the batch and is
	// sleeping out its window.
	registered := time.After(5 * time.Second)
	for {
		svc.batchMu.Lock()
		_, ok := svc.batches[key]
		svc.batchMu.Unlock()
		if ok {
			break
		}
		select {
		case <-registered:
			t.Fatal("leader never registered its batch")
		case <-time.After(time.Millisecond):
		}
	}
	for i := 0; i < followers; i++ {
		go func() { errs <- batchedRecovering(svc, key, run) }()
	}

	deadline := time.After(5 * time.Second)
	for i := 0; i < followers+1; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Errorf("caller %d: err = %v, want the recovered panic", i, err)
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still blocked on a batch whose run panicked",
				followers+1-i, followers+1)
		}
	}
	if joined := svc.stats.BatchJoined.Load(); joined != followers {
		t.Errorf("%d callers joined the batch, want %d", joined, followers)
	}
}

// batchedRecovering calls s.batched and turns a panic that escapes it into
// an error, so an uncontained leader panic fails the test instead of
// crashing the test binary.
func batchedRecovering(s *Server, key string, run func() (any, error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("escaped panic: %v", r)
		}
	}()
	_, err = s.batched(key, run)
	return err
}

// TestCallPublishes: the coalescing primitive behind the batcher, the
// cache entries and the comm-calibration cache. Every waiter receives the
// run's outcome, a panicking run's included as its error, and a waiter
// whose context ends first gets a shutdown error instead of blocking.
func TestCallPublishes(t *testing.T) {
	ctx := context.Background()
	const waiters = 3
	// outcomes runs f on a fresh call with waiters blocked on it, and
	// returns the run's error followed by each waiter's.
	outcomes := func(f func() (int, error)) []error {
		c := newCall[int]()
		errs := make(chan error, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				v, err := c.wait(ctx)
				if err == nil && v != 42 {
					err = fmt.Errorf("waiter got %d, want 42", v)
				}
				errs <- err
			}()
		}
		v, err := c.run(f)
		if err == nil && v != 42 {
			err = fmt.Errorf("run returned %d, want 42", v)
		}
		out := []error{err}
		for i := 0; i < waiters; i++ {
			select {
			case err := <-errs:
				out = append(out, err)
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d waiters still blocked", waiters-i, waiters)
			}
		}
		return out
	}
	for i, err := range outcomes(func() (int, error) { return 42, nil }) {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	for i, err := range outcomes(func() (int, error) { panic("boom") }) {
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("caller %d of a panicking run: err %v, want the panic", i, err)
		}
	}
	ended, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := newCall[int]().wait(ended); !errors.Is(err, context.Canceled) {
		t.Errorf("wait on an ended context: %v, want context.Canceled", err)
	}
}
