package flight

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// collect receives n errors from errs, failing the test after 5 s.
func collect(t *testing.T, errs <-chan error, n int) []error {
	t.Helper()
	out := make([]error, 0, n)
	for len(out) < n {
		select {
		case err := <-errs:
			out = append(out, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters still blocked", n-len(out), n)
		}
	}
	return out
}

// TestCallPublishes: every waiter receives the run's outcome, a panicking
// run's included as its error, and a waiter whose context ends first gets
// the context's cause instead of blocking.
func TestCallPublishes(t *testing.T) {
	ctx := context.Background()
	const waiters = 3
	// outcomes runs f on a fresh call with waiters blocked on it, and
	// returns the run's error followed by each waiter's.
	outcomes := func(f func() (int, error)) []error {
		c := NewCall[int]()
		errs := make(chan error, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				v, err := c.Wait(ctx)
				if err == nil && v != 42 {
					err = fmt.Errorf("waiter got %d, want 42", v)
				}
				errs <- err
			}()
		}
		v, err := c.Run(f)
		if err == nil && v != 42 {
			err = fmt.Errorf("run returned %d, want 42", v)
		}
		return append([]error{err}, collect(t, errs, waiters)...)
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
	if _, err := NewCall[int]().Wait(ended); !errors.Is(err, context.Canceled) {
		t.Errorf("wait on an ended context: %v, want context.Canceled", err)
	}
	if v, err := Published(7).Wait(ctx); v != 7 || err != nil {
		t.Errorf("a published call answers %d, %v; want 7, nil", v, err)
	}
}

// TestGroupJoinsRunInFlight: callers that join a key while its run is in
// progress share that run's value; none of them runs f.
func TestGroupJoinsRunInFlight(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	c, joined := g.Join("k")
	if joined {
		t.Fatal("the first caller joined an empty group")
	}
	done := make(chan int, 1)
	go func() {
		v, _ := g.Run("k", c, func() (int, error) { <-release; return 42, nil })
		done <- v
	}()
	const joiners = 4
	errs := make(chan error, joiners)
	for i := 0; i < joiners; i++ {
		jc, joined := g.Join("k")
		if !joined || jc != c {
			t.Fatalf("joiner %d: joined %v, same call %v; want the run in flight", i, joined, jc == c)
		}
		go func() {
			v, err := jc.Wait(context.Background())
			if err == nil && v != 42 {
				err = fmt.Errorf("joiner got %d, want 42", v)
			}
			errs <- err
		}()
	}
	close(release)
	for i, err := range collect(t, errs, joiners) {
		if err != nil {
			t.Errorf("joiner %d: %v", i, err)
		}
	}
	if v := <-done; v != 42 {
		t.Errorf("leader got %d, want 42", v)
	}
}

// TestGroupFreesKeyBeforePublishing: once a run's outcome is published its
// key is already free, so a waiter that asks again as soon as it is woken
// starts a fresh run instead of joining the finished one.
func TestGroupFreesKeyBeforePublishing(t *testing.T) {
	var g Group[string, int]
	c, _ := g.Join("k")
	again := make(chan bool, 1)
	go func() {
		c.Wait(context.Background())
		_, joined := g.Join("k")
		again <- joined
	}()
	g.Run("k", c, func() (int, error) { return 1, nil })
	if <-again {
		t.Fatal("a caller woken by the outcome joined the finished run")
	}
}

// TestGroupPanicFreesKey: a panicking run publishes the panic to every
// joiner as its error and frees its key, so the next caller leads a fresh
// run.
func TestGroupPanicFreesKey(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	c, _ := g.Join("k")
	leader := make(chan error, 1)
	go func() {
		_, err := g.Run("k", c, func() (int, error) { <-release; panic("boom") })
		leader <- err
	}()
	jc, joined := g.Join("k")
	if !joined {
		t.Fatal("the joiner led a second run")
	}
	joiner := make(chan error, 1)
	go func() { _, err := jc.Wait(context.Background()); joiner <- err }()
	close(release)
	for _, err := range []error{<-leader, <-joiner} {
		if err == nil || err.Error() != "flight: run panicked: boom" {
			t.Errorf("err %v, want the panic", err)
		}
	}
	if _, joined := g.Join("k"); joined {
		t.Error("the panicked run kept its key")
	}
}

// TestGroupJoinerContextEnds: a joiner whose context ends stops waiting
// with the context's cause; the run goes on and publishes to the rest.
func TestGroupJoinerContextEnds(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	c, _ := g.Join("k")
	leader := make(chan int, 1)
	go func() {
		v, _ := g.Run("k", c, func() (int, error) { <-release; return 42, nil })
		leader <- v
	}()
	jc, _ := g.Join("k")
	cause := errors.New("client gone")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := jc.Wait(ctx); !errors.Is(err, cause) {
		t.Errorf("joiner err %v, want %v", err, cause)
	}
	close(release)
	if v := <-leader; v != 42 {
		t.Errorf("leader got %d, want 42", v)
	}
	if v, err := jc.Wait(context.Background()); v != 42 || err != nil {
		t.Errorf("a later wait got %d, %v; want 42, nil", v, err)
	}
}

// TestGroupKeep: a kept success answers every later Join published, while
// a failure frees its key for a retry.
func TestGroupKeep(t *testing.T) {
	var g Group[string, int]
	c, _ := g.Join("ok")
	g.Keep("ok", c, func() (int, error) { return 42, nil })
	kept, joined := g.Join("ok")
	if !joined || kept != c {
		t.Fatal("a kept success was not joined")
	}
	if v, err := kept.Wait(context.Background()); v != 42 || err != nil {
		t.Errorf("kept call answers %d, %v; want 42, nil", v, err)
	}

	boom := errors.New("boom")
	c, _ = g.Join("bad")
	if _, err := g.Keep("bad", c, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("Keep returned %v, want %v", err, boom)
	}
	if _, joined := g.Join("bad"); joined {
		t.Error("a failed Keep kept its key")
	}
}
