package service

import (
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
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	const key, followers = "test|panicking-run", 4
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, followers+1)
	go func() {
		errs <- batchedRecovering(svc, key, func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()

	// Followers join while the leader is inside its run.
	<-started
	for i := 0; i < followers; i++ {
		go func() {
			errs <- batchedRecovering(svc, key, func() (any, error) {
				return nil, errors.New("a follower ran instead of joining")
			})
		}()
	}
	waitUntil(t, "the followers to join", func() bool { return svc.stats.BatchJoined.Load() == followers })
	close(release)

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
