package service

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestBatchedPanicWakesFollowers: a batch leader whose run panics must
// still publish the batch. Every follower that joined it returns the
// recovered panic as an error instead of blocking until the shard shuts
// down.
func TestBatchedPanicWakesFollowers(t *testing.T) {
	svc, err := New(Config{BatchWindow: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	sh, err := svc.shardFor("panicky")
	if err != nil {
		t.Fatal(err)
	}
	const key, followers = "test|panicking-run", 4
	run := func() (any, error) { panic("boom") }
	errs := make(chan error, followers+1)
	go func() { errs <- batchedRecovering(sh, key, run) }()

	// Followers join once the leader has registered the batch and is
	// sleeping out its window.
	registered := time.After(5 * time.Second)
	for {
		sh.batchMu.Lock()
		_, ok := sh.batches[key]
		sh.batchMu.Unlock()
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
		go func() { errs <- batchedRecovering(sh, key, run) }()
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
	if joined := sh.stats.batchJoined.Load(); joined != followers {
		t.Errorf("%d callers joined the batch, want %d", joined, followers)
	}
}

// batchedRecovering calls sh.batched and turns a panic that escapes it into
// an error, so an uncontained leader panic fails the test instead of
// crashing the test binary.
func batchedRecovering(sh *shard, key string, run func() (any, error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("escaped panic: %v", r)
		}
	}()
	_, err = sh.batched(key, run)
	return err
}
