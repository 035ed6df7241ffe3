package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/partition"
	"fupermod/internal/pool"
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

// batchCall is one in-flight batched operation shared by every request
// with the same batch key. done is closed after the run; val and err must
// only be read afterwards. The value is shared read-only — each request
// marshals its own response from it.
type batchCall struct {
	done chan struct{}
	val  any
	err  error
}

// BatchKey fingerprints everything that determines a partition result:
// the operation, the tenant, the resolved model cache keys in device
// order, the algorithm, and the problem size. Requests agreeing on all of
// these are answered by a single solver call. op keeps the key spaces of
// the different batched endpoints (partition, dynpart, balance) disjoint.
// It is exported so the perf harness (internal/bench) can track its cost —
// the key is computed on every batched request.
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
// invokes run exactly once and publishes the result to everyone. Partition
// solves, dynamic-partition runs and balance replays all route through
// here with disjoint key spaces.
//
// A panicking run is contained on the leader path, as modelstore.FillProv
// contains a panicking sweep: the recovered panic becomes the batch's
// error and the batch is published anyway, so no follower stays blocked
// on a run that can no longer finish.
func (sh *shard) batched(key string, run func() (any, error)) (val any, err error) {
	if sh.batchWindow <= 0 {
		return run()
	}
	window := sh.window.observe(time.Now())
	sh.batchMu.Lock()
	if call, ok := sh.batches[key]; ok {
		sh.batchMu.Unlock()
		sh.stats.batchJoined.Add(1)
		select {
		case <-call.done:
			return call.val, call.err
		case <-sh.ctx.Done():
			return nil, sh.ctx.Err()
		}
	}
	if window <= 0 {
		// Idle traffic: nobody will join within any window, so don't make
		// this request pay one. In-flight batches are still joined above.
		sh.batchMu.Unlock()
		sh.stats.batchWindowSkips.Add(1)
		return run()
	}
	call := &batchCall{done: make(chan struct{})}
	sh.batches[key] = call
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

	defer func() {
		if r := recover(); r != nil {
			call.val, call.err = nil, fmt.Errorf("service: batched run panicked: %v", r)
			val, err = call.val, call.err
		}
		close(call.done)
	}()
	call.val, call.err = run()
	return call.val, call.err
}

// solvePartition answers one partition request through the batcher.
func (sh *shard) solvePartition(tenant string, keys []ModelKey, models []core.Model, algorithm string, D int, commTag string) (*core.Dist, error) {
	key := BatchKey("part", tenant, keys, algorithm, D, commTag)
	v, err := sh.batched(key, func() (any, error) {
		return sh.runSolve(models, algorithm, D)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Dist), nil
}

// runSolve executes one partitioner call on the shared pool.
func (sh *shard) runSolve(models []core.Model, algorithm string, D int) (*core.Dist, error) {
	p, err := partition.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	var dist *core.Dist
	err = pool.Do(sh.ctx, sh.pool, func(context.Context) error {
		sh.stats.batchSolves.Add(1)
		var serr error
		dist, serr = p.Partition(models, D)
		return serr
	})
	return dist, err
}
