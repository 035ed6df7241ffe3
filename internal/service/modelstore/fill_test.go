package modelstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fupermod/internal/core"
)

func fillPoints() []core.Point {
	return []core.Point{
		{D: 16, Time: 0.001, Reps: 3, CI: 1e-5},
		{D: 256, Time: 0.012, Reps: 3, CI: 2e-5},
		{D: 5000, Time: 0.21, Reps: 3, CI: 3e-5},
	}
}

func TestOpenSharesHandlePerDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two Opens of %s returned distinct handles", dir)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("Opens of distinct directories shared a handle")
	}
}

func TestFillReadsDiskBeforeSweeping(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("fill", "cpu-small")
	if err := s.Put(k, "kern", fillPoints()); err != nil {
		t.Fatal(err)
	}
	ent, info, err := s.Fill(context.Background(), k, func() (Swept, error) {
		t.Error("sweep ran despite an intact entry on disk")
		return Swept{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceDisk || info.Corrupt {
		t.Fatalf("info = %+v, want SourceDisk, not corrupt", info)
	}
	if len(ent.Points) != len(fillPoints()) {
		t.Fatalf("got %d points, want %d", len(ent.Points), len(fillPoints()))
	}
}

func TestFillSingleFlightAcrossCallers(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("fill", "cpu-race")
	var sweeps atomic.Int32
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	infos := make([]FillInfo, callers)
	entries := make([]Entry, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], infos[i], errs[i] = s.Fill(context.Background(), k, func() (Swept, error) {
				sweeps.Add(1)
				<-release // hold the flight open so the others must join
				return Swept{Kernel: "kern", Points: fillPoints()}, nil
			})
		}(i)
	}
	// Wait until a leader is registered, then let it finish. Late callers
	// that miss the flight entirely hit the spilled file on disk instead —
	// every outcome but a second sweep is fine.
	for {
		s.flightMu.Lock()
		n := len(s.flights)
		s.flightMu.Unlock()
		if n > 0 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := sweeps.Load(); got != 1 {
		t.Fatalf("sweep ran %d times, want exactly 1", got)
	}
	swept := 0
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if infos[i].Source == SourceSwept {
			swept++
		}
		if len(entries[i].Points) != len(fillPoints()) {
			t.Fatalf("caller %d: got %d points", i, len(entries[i].Points))
		}
	}
	if swept != 1 {
		t.Fatalf("%d callers report SourceSwept, want exactly 1", swept)
	}
}

// TestFillLeaderPanicWakesJoiners is the regression test for the leaked
// flight: a panicking sweep used to unwind straight through Fill without
// deregistering the flight or closing its done channel, hanging every
// concurrent joiner and poisoning the key for the rest of the process —
// all later callers joined the dead flight too. The leader must convert
// the panic into an error, every joiner must observe it promptly, and the
// next caller must lead a fresh, successful fill.
func TestFillLeaderPanicWakesJoiners(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("fill", "cpu-panic")

	boom := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.Fill(context.Background(), k, func() (Swept, error) {
			<-boom // hold the flight open until the joiners are waiting
			panic("sweep exploded")
		})
		leaderErr <- err
	}()
	// Wait for the leader's flight to register, then pile joiners on it.
	for {
		s.flightMu.Lock()
		n := len(s.flights)
		s.flightMu.Unlock()
		if n > 0 {
			break
		}
		runtime.Gosched()
	}
	const joiners = 8
	joinErrs := make(chan error, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			_, _, err := s.Fill(context.Background(), k, func() (Swept, error) {
				return Swept{Kernel: "kern", Points: fillPoints()}, nil
			})
			joinErrs <- err
		}()
	}
	close(boom)

	// The leader reports the contained panic...
	if err := <-leaderErr; err == nil || err.Error() != "modelstore: fill leader panicked: sweep exploded" {
		t.Fatalf("leader error = %v, want the contained panic", err)
	}
	// ...and every joiner is woken with an error instead of hanging (their
	// contexts have no deadline: only the closed flight can unblock them).
	// A joiner that arrived after the flight died leads its own fill and
	// succeeds — both outcomes are fine; a hang is the bug.
	for i := 0; i < joiners; i++ {
		if err := <-joinErrs; err != nil && err.Error() != "modelstore: fill leader panicked: sweep exploded" {
			t.Fatalf("joiner %d: unexpected error %v", i, err)
		}
	}

	// The key is not poisoned: the next caller elects itself leader and
	// the healthy sweep lands.
	ent, info, err := s.Fill(context.Background(), k, func() (Swept, error) {
		return Swept{Kernel: "kern", Points: fillPoints()}, nil
	})
	if err != nil {
		t.Fatalf("fill after a contained panic: %v", err)
	}
	if info.Source != SourceSwept && info.Source != SourceDisk {
		t.Fatalf("source = %v after a contained panic", info.Source)
	}
	if len(ent.Points) != len(fillPoints()) {
		t.Fatalf("entry carries %d points, want %d", len(ent.Points), len(fillPoints()))
	}
}

func TestFillHealsCorruptEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("fill", "cpu-torn")
	if err := s.Put(k, "kern", fillPoints()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(k), data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	ent, info, err := s.Fill(context.Background(), k, func() (Swept, error) {
		return Swept{Kernel: "kern", Points: fillPoints()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Corrupt || info.Source != SourceSwept {
		t.Fatalf("info = %+v, want corrupt re-sweep", info)
	}
	if info.PutErr != nil {
		t.Fatalf("heal spill failed: %v", info.PutErr)
	}
	if len(ent.Points) != len(fillPoints()) {
		t.Fatalf("got %d points", len(ent.Points))
	}
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("entry not healed: ok=%v err=%v", ok, err)
	}
}

func TestFillFailureForgetsFlight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("fill", "cpu-flaky")
	boom := errors.New("sweep exploded")
	if _, _, err := s.Fill(context.Background(), k, func() (Swept, error) {
		return Swept{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	ent, info, err := s.Fill(context.Background(), k, func() (Swept, error) {
		return Swept{Kernel: "kern", Points: fillPoints()}, nil
	})
	if err != nil {
		t.Fatalf("retry after failed fill: %v", err)
	}
	if info.Source != SourceSwept {
		t.Fatalf("retry source = %v, want SourceSwept", info.Source)
	}
	if len(ent.Points) != len(fillPoints()) {
		t.Fatalf("got %d points", len(ent.Points))
	}
}

func TestFillJoinerHonoursContext(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("fill", "cpu-slow")
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Fill(context.Background(), k, func() (Swept, error) {
			close(started)
			<-release
			return Swept{Kernel: "kern", Points: fillPoints()}, nil
		})
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Fill(ctx, k, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

func TestFillRejectsInvalidKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Fill(context.Background(), Key{}, func() (Swept, error) {
		return Swept{}, fmt.Errorf("must not run")
	})
	if err == nil {
		t.Fatal("Fill accepted an invalid key")
	}
}
