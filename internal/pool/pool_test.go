package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// MapSeq is the serial reference implementation of Map: same contract,
// one task at a time, in index order. The parallel paths are tested
// against it.
func MapSeq[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("pool: negative task count %d", n)
	}
	results := make([]T, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		r, err := fn(ctx, i)
		if err != nil {
			return results, err
		}
		results[i] = r
	}
	return results, nil
}

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	p := New(8)
	n := 100
	got, err := Map(context.Background(), p, n, func(_ context.Context, i int) (int, error) {
		// Stagger completion so later tasks often finish first.
		time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

// TestMapMatchesSerialReference is the deterministic-ordering property
// test: for random worker counts and task counts, the parallel Map must
// produce exactly what the serial reference produces.
func TestMapMatchesSerialReference(t *testing.T) {
	f := func(workers uint8, n uint8) bool {
		fn := func(_ context.Context, i int) (string, error) {
			return fmt.Sprintf("task-%d", i*3), nil
		}
		want, err := MapSeq(context.Background(), int(n), fn)
		if err != nil {
			return false
		}
		got, err := Map(context.Background(), New(int(workers)), int(n), fn)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), p, 64, func(_ context.Context, i int) (struct{}, error) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pk := peak.Load(); pk > workers {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", pk, workers)
	}
}

func TestMapSharedPoolBoundsUnion(t *testing.T) {
	// Two concurrent Map calls on the same pool must share one budget.
	const workers = 2
	p := New(workers)
	var cur, peak atomic.Int64
	task := func(_ context.Context, i int) (struct{}, error) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return struct{}{}, nil
	}
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			_, err := Map(context.Background(), p, 20, task)
			done <- err
		}()
	}
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if pk := peak.Load(); pk > workers {
		t.Errorf("two Map calls reached %d concurrent tasks, shared bound is %d", pk, workers)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	p := New(4)
	// Several tasks fail; the reported error must be the lowest-indexed
	// one, as a serial loop would have reported.
	_, err := Map(context.Background(), p, 32, func(_ context.Context, i int) (int, error) {
		if i%5 == 3 { // fails at 3, 8, 13, ...
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 3 failed" {
		t.Errorf("err = %v, want the task-3 failure", err)
	}
}

func TestMapCancelsRemainingTasks(t *testing.T) {
	p := New(1) // sequential: tasks after the failure must be skipped
	var ran atomic.Int64
	_, err := Map(context.Background(), p, 50, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected the injected error")
	}
	if n := ran.Load(); n != 3 {
		t.Errorf("%d tasks ran after a failure at index 2 on 1 worker, want 3", n)
	}
}

func TestMapRespectsCallerContext(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Map(ctx, p, 10, func(ctx context.Context, i int) (int, error) {
		return i, ctx.Err()
	})
	if err == nil {
		t.Errorf("cancelled context should surface an error, got results %v", res)
	}
}

func TestMapLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(8)
	for round := 0; round < 5; round++ {
		_, _ = Map(context.Background(), p, 40, func(_ context.Context, i int) (int, error) {
			if i == 17 {
				return 0, errors.New("boom")
			}
			return i, nil
		})
	}
	// Map waits for its workers before returning, so the count must come
	// back down; allow brief scheduler lag.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Map returned", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want %d", got, want)
	}
	if got := New(-3).Workers(); got < 1 {
		t.Errorf("New(-3).Workers() = %d", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Errorf("New(5).Workers() = %d", got)
	}
}

func TestMapRejectsBadInputs(t *testing.T) {
	if _, err := Map(context.Background(), nil, 1, func(_ context.Context, i int) (int, error) { return i, nil }); err == nil {
		t.Error("nil pool should error")
	}
	if _, err := Map(context.Background(), New(1), -1, func(_ context.Context, i int) (int, error) { return i, nil }); err == nil {
		t.Error("negative n should error")
	}
	if _, err := MapSeq(context.Background(), -1, func(_ context.Context, i int) (int, error) { return i, nil }); err == nil {
		t.Error("negative n should error in MapSeq")
	}
	if res, err := Map(context.Background(), New(1), 0, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil || len(res) != 0 {
		t.Errorf("empty Map: %v, %v", res, err)
	}
}

// TestMapCancelledParentSkipsAll covers the all-skipped path: a parent
// context that is already cancelled when Map is called must run no task at
// all, return the cancellation cause, and leave every result slot at the
// zero value.
func TestMapCancelledParentSkipsAll(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("already cancelled")
	cancel(cause)
	var ran atomic.Int32
	res, err := Map(ctx, New(4), 8, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i + 1, nil
	})
	if !errors.Is(err, cause) {
		t.Errorf("error = %v, want the cancellation cause", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d tasks ran under a cancelled parent, want 0", got)
	}
	if len(res) != 8 {
		t.Fatalf("len(res) = %d, want 8 zero-valued slots", len(res))
	}
	for i, r := range res {
		if r != 0 {
			t.Errorf("slot %d = %d, want zero value", i, r)
		}
	}
	// MapSeq honours the same contract.
	if _, err := MapSeq(ctx, 3, func(_ context.Context, i int) (int, error) {
		t.Error("MapSeq ran a task under a cancelled parent")
		return 0, nil
	}); err == nil {
		t.Error("MapSeq should report the cancelled context")
	}
}

func TestDoRunsOnPool(t *testing.T) {
	p := New(2)
	// Do shares the bound with Map: saturate the pool, then check Do
	// blocks until a slot frees.
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	go Map(context.Background(), p, 2, func(_ context.Context, i int) (int, error) {
		started <- struct{}{}
		<-release
		return 0, nil
	})
	<-started
	<-started
	done := make(chan error, 1)
	go func() {
		done <- Do(context.Background(), p, func(context.Context) error { return nil })
	}()
	select {
	case <-done:
		t.Fatal("Do ran while the pool was saturated")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Do after release: %v", err)
	}

	if err := Do(context.Background(), nil, func(context.Context) error { return nil }); err == nil {
		t.Error("nil pool should error")
	}
	wantErr := errors.New("task failed")
	if err := Do(context.Background(), p, func(context.Context) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("Do error = %v, want %v", err, wantErr)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("gone")
	cancel(cause)
	if err := Do(ctx, p, func(context.Context) error {
		t.Error("Do ran its task under a cancelled context")
		return nil
	}); !errors.Is(err, cause) {
		t.Errorf("cancelled Do error = %v, want the cause", err)
	}
}
