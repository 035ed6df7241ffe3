package modelstore

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"fupermod/internal/core"
)

// This file extends the store from a passive spill directory into the
// coherence point of a serving fleet. Replicas (servers pointed at one
// -store-dir, one per process behind fupermod-route, or several in one
// process) do not talk to each other; they share sweeps through two
// mechanisms here:
//
//   - Open dedupes Store instances per directory, so every replica in a
//     process holds the *same* handle, and one index;
//   - Fill is a single-flight fill keyed by the full store key: the first
//     caller for a key checks disk, sweeps (or warm-starts, see Acquire)
//     on a miss, and spills; every concurrent caller — from any replica on
//     the same handle — blocks and shares the result. A (tenant, device,
//     grid, precision) key is therefore swept at most once per process
//     lifetime, no matter how many replicas race for it, and at most once
//     per fleet lifetime when the disk write lands before the next process
//     asks.
//
// Fill is the one way a serving replica sweeps and spills a stored key.
// The replica fits its model to the entry Fill returns and keeps only the
// model. A stored entry the model kind cannot fit is not swept again: a
// sweep is a pure function of its key, so it would return the same points
// and the same fit error.

var (
	openMu sync.Mutex
	opened = make(map[string]*Store)
)

// openShared returns the process-wide Store for a directory, creating it
// on first use. The key is the absolute cleaned path, so two spellings of
// one directory share a handle.
func openShared(dir string) *Store {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	openMu.Lock()
	defer openMu.Unlock()
	if s, ok := opened[key]; ok {
		return s
	}
	s := &Store{dir: dir, flights: make(map[Key]*flight)}
	opened[key] = s
	return s
}

// FillSource says how a Fill call was satisfied.
type FillSource int

const (
	// SourceDisk: an intact entry was read from the store directory.
	SourceDisk FillSource = iota
	// SourceSwept: this caller ran the sweep (and spilled it write-behind).
	SourceSwept
	// SourceJoined: the caller joined another caller's in-flight sweep of
	// the same key and shared its result without sweeping itself.
	SourceJoined
)

// FillInfo reports how a Fill was satisfied, for the caller's accounting
// (the service maps these onto its /stats counters).
type FillInfo struct {
	Source FillSource
	// Corrupt is set (on the flight leader only) when an existing entry was
	// unreadable and the fill re-swept; the subsequent spill heals the file.
	Corrupt bool
	// PutErr carries the write-behind spill failure, if any (SourceSwept
	// only). The sweep result is still returned — durability failures
	// degrade persistence, not answers.
	PutErr error
}

// flight is one in-progress fill, shared by every caller of its key.
type flight struct {
	done  chan struct{}
	entry Entry
	info  FillInfo
	err   error
}

// Swept is the product of one acquisition: the kernel, its points, and —
// when the points came from cross-device transfer rather than a full
// sweep — the transfer provenance to record on the entry.
type Swept struct {
	Kernel   string
	Points   []core.Point
	Transfer string
}

// Fill returns the entry for a key, sweeping at most once across all
// concurrent callers of this Store handle. The leader for a key first
// checks disk (so a replica that missed locally reuses another replica's —
// or a previous process's — spilled sweep), and only on a disk miss runs
// the caller-supplied sweep, spilling the result write-behind; a non-empty
// Swept.Transfer is recorded on the spilled entry's header. Concurrent
// callers for the same key block until the leader finishes and share its
// result; a failed fill is forgotten, so the next caller retries cleanly.
//
// ctx bounds only the wait of a joining caller; the leader's sweep is
// bounded by whatever context the sweep closure itself observes.
//
// A panicking sweep is contained: the leader converts it into an error,
// deregisters the flight and wakes every joiner. Letting it unwind
// uncontained would leak the flight entry forever — every waiting and
// future caller of the key would block on a fill that can no longer
// finish.
func (s *Store) Fill(ctx context.Context, k Key, sweep func() (Swept, error)) (ent Entry, info FillInfo, err error) {
	if err := k.Validate(); err != nil {
		return Entry{}, FillInfo{}, err
	}
	s.flightMu.Lock()
	if s.flights == nil {
		s.flights = make(map[Key]*flight)
	}
	if f, ok := s.flights[k]; ok {
		s.flightMu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return Entry{}, FillInfo{}, ctx.Err()
		}
		if f.err != nil {
			return Entry{}, FillInfo{}, f.err
		}
		info := FillInfo{Source: SourceJoined}
		if f.info.Source == SourceDisk {
			// A shared disk read is a disk read for every caller; only a
			// shared sweep is something a joiner must not double-count.
			info.Source = SourceDisk
		}
		return f.entry, info, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.flightMu.Unlock()

	// Deregister before publishing, however the leader exits: callers
	// arriving after this point start a fresh flight and hit the spilled
	// file on disk (or retry the sweep if the fill failed); callers
	// already waiting share this result. A recovered panic becomes the
	// flight's error so joiners observe the failure and the next caller
	// elects itself a fresh leader.
	defer func() {
		if r := recover(); r != nil {
			f.entry, f.info = Entry{}, FillInfo{}
			f.err = fmt.Errorf("modelstore: fill leader panicked: %v", r)
			ent, info, err = f.entry, f.info, f.err
		}
		s.flightMu.Lock()
		delete(s.flights, k)
		s.flightMu.Unlock()
		close(f.done)
	}()
	f.entry, f.info, f.err = s.fillLeader(k, sweep)
	return f.entry, f.info, f.err
}

func (s *Store) fillLeader(k Key, sweep func() (Swept, error)) (Entry, FillInfo, error) {
	var info FillInfo
	switch ent, ok, err := s.Get(k); {
	case err != nil:
		info.Corrupt = true
	case ok:
		info.Source = SourceDisk
		return ent, info, nil
	}
	sw, err := sweep()
	if err != nil {
		return Entry{}, info, err
	}
	info.Source = SourceSwept
	info.PutErr = s.PutTransfer(k, sw.Kernel, sw.Points, sw.Transfer)
	return Entry{Key: k, Kernel: sw.Kernel, Points: sw.Points, Transfer: sw.Transfer}, info, nil
}
