package service

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/flight"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
	"fupermod/internal/platform"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
)

// ModelKey identifies one fitted model in a tenant's cache: the virtual
// device (preset name), its measurement-noise seed and level, the size
// grid the sweep samples, and the model kind fitted to the points. Two
// requests with equal keys are guaranteed the same model, so the service
// measures once and reuses the fit (Stevens–Klöckner: cache fitted
// black-box performance models across requests instead of re-measuring).
type ModelKey struct {
	Device string
	Seed   int64
	Noise  float64
	Lo     int
	Hi     int
	N      int
	Model  string
}

// String renders the key as device/seed=S/noise=N/grid=lo:hi:n/model, the
// noise in its shortest round-trip form.
func (k ModelKey) String() string {
	var buf [128]byte
	return string(k.appendTo(buf[:0]))
}

// appendTo appends String's bytes to b.
func (k ModelKey) appendTo(b []byte) []byte {
	b = append(b, k.Device...)
	b = append(b, "/seed="...)
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, "/noise="...)
	b = strconv.AppendFloat(b, k.Noise, 'g', -1, 64)
	b = append(b, "/grid="...)
	b = strconv.AppendInt(b, int64(k.Lo), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(k.Hi), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, '/')
	return append(b, k.Model...)
}

// entry is one cache slot: the fill's call, published before the fill
// runs. Its value is the fitted model alone — the model keeps the points
// it was fitted to (Points), so the slot holds each measurement once.
// Closing done is the happens-before edge making the fitted model safe for
// concurrent read-only use by any number of partition solves.
type entry struct {
	*flight.Call[core.Model]
	key  ModelKey
	elem *list.Element
}

// tenantCache is one tenant's LRU-bounded model cache. It is guarded by
// the server's cache mutex, not its own: eviction decisions and
// single-flight registration are a few map/list operations, so one lock
// keeps the invariants simple and uncontended next to sweep costs.
type tenantCache struct {
	max     int
	entries map[ModelKey]*entry
	order   *list.List // front = most recently used
}

func newTenantCache(max int) *tenantCache {
	return &tenantCache{max: max, entries: make(map[ModelKey]*entry), order: list.New()}
}

// getModel returns the fitted model for key in the given tenant's cache,
// sweeping and fitting on a cache miss. Concurrent requests for the same
// key are deduplicated: exactly one performs the sweep, the rest wait for
// it (single-flight). Failed fills, a panicking one included, are removed
// from the cache so a later request can retry. Waiters deliberately
// observe the server's lifetime, not their own request context: the fill
// belongs to the cache, not to any single client, so a client
// disconnecting never poisons the entry for the others.
func (s *Server) getModel(tenant string, key ModelKey) (core.Model, error) {
	s.mu.Lock()
	tc := s.tenantCacheLocked(tenant)
	if e, ok := tc.entries[key]; ok {
		tc.order.MoveToFront(e.elem)
		select {
		case <-e.Done():
			s.stats.CacheHits.Add(1)
		default:
			s.stats.CacheCoalesced.Add(1)
		}
		s.mu.Unlock()
		return e.Wait(s.ctx)
	}
	// Admission control happens exactly here: a miss commits the tenant to
	// a fill — the expensive, pool-occupying operation the quota meters.
	// Hits and coalesced waits above are deliberately exempt.
	if !s.quota.acquire(tenant) {
		s.mu.Unlock()
		return nil, s.rejectQuota(tenant)
	}
	s.stats.CacheMisses.Add(1)
	e := &entry{Call: flight.NewCall[core.Model](), key: key}
	e.elem = tc.order.PushFront(e)
	tc.entries[key] = e
	s.evictOverLocked(tc)
	s.mu.Unlock()

	m, err := e.Run(func() (core.Model, error) { return s.fill(tenant, key) })
	s.quota.release(tenant)
	if err != nil {
		// Drop the failed entry (if it has not been evicted and replaced
		// already) so the next identical request retries.
		s.mu.Lock()
		if cur, ok := tc.entries[key]; ok && cur == e {
			tc.order.Remove(e.elem)
			delete(tc.entries, key)
		}
		s.mu.Unlock()
	}
	return m, err
}

// tenantCacheLocked returns (creating if needed) the tenant's cache.
// Caller holds s.mu.
func (s *Server) tenantCacheLocked(tenant string) *tenantCache {
	tc, ok := s.tenants[tenant]
	if !ok {
		tc = newTenantCache(s.cacheSize)
		s.tenants[tenant] = tc
	}
	return tc
}

// evictOverLocked applies the LRU bound. Caller holds s.mu.
func (s *Server) evictOverLocked(tc *tenantCache) {
	for tc.order.Len() > tc.max {
		oldest := tc.order.Back()
		victim := oldest.Value.(*entry)
		tc.order.Remove(oldest)
		delete(tc.entries, victim.key)
		s.stats.CacheEvictions.Add(1)
	}
}

// fill sweeps and fits the model for key. With a store configured, the
// points come through the store's cross-replica single-flight
// (modelstore.Fill): the store is consulted before the device is even
// resolved — a stored sweep is servable when its device can no longer be
// resolved (a machine file not yet re-uploaded after a restart) — and a
// miss sweeps exactly once per key across every replica sharing the store.
// Each replica counts the outcome on its own counters before it fits, and
// the fit's error is the answer wherever the points came from: a sweep is
// a pure function of its store key, so sweeping a stored entry again would
// reproduce its points and its error. Storeless servers sweep directly;
// the cache-entry single-flight already deduplicates within the server.
// Only a sweep or a transfer computes the key's sizes; keyOf has rejected
// grids without any.
func (s *Server) fill(tenant string, key ModelKey) (core.Model, error) {
	sk, stored := s.storeKey(tenant, key)
	if !stored {
		sw, err := s.sweepKey(tenant, key, core.LogSizes(key.Lo, key.Hi, key.N))
		if err != nil {
			return nil, err
		}
		return fitPoints(key.Model, sw.Points)
	}
	ent, info, err := s.store.Fill(s.ctx, sk, func() (modelstore.Swept, error) {
		sizes := core.LogSizes(key.Lo, key.Hi, key.N)
		if s.transfer {
			return s.acquireKey(tenant, key, sizes, sk)
		}
		return s.sweepKey(tenant, key, sizes)
	})
	if info.Corrupt {
		// Torn or damaged file: the flight re-swept and the spill healed
		// the entry.
		s.stats.StoreCorrupt.Add(1)
	}
	if err != nil {
		return nil, err
	}
	switch info.Source {
	case modelstore.SourceDisk:
		s.stats.StoreHits.Add(1)
	case modelstore.SourceSwept:
		// Write-behind spill: failures keep the in-memory entry valid and
		// are only counted — durability is best-effort per fill.
		if info.PutErr != nil {
			s.stats.StoreErrors.Add(1)
		} else {
			s.stats.StoreSpills.Add(1)
		}
	case modelstore.SourceJoined:
		// Another replica's sweep answered us: nothing of ours to count —
		// the sweeping replica owns the sweep and the spill.
	}
	return fitPoints(key.Model, ent.Points)
}

// sweepKey resolves the key's device and runs its benchmark sweep on the
// shared worker pool so concurrent fills never oversubscribe the machine.
// The sweep is executed serially inside one pool slot: the noise meter
// draws pseudo-random perturbations in sequence, so a serial sweep is
// deterministic for a given key — the property that makes cache entries
// reproducible, disk-store spills replayable, and service responses
// byte-identical to the direct library path on every replica.
func (s *Server) sweepKey(tenant string, key ModelKey, sizes []int) (modelstore.Swept, error) {
	k, err := s.kernelFor(tenant, key)
	if err != nil {
		return modelstore.Swept{}, err
	}
	var pts []core.Point
	err = pool.Do(s.ctx, s.pool, func(context.Context) error {
		s.stats.Sweeps.Add(1)
		start := time.Now()
		var serr error
		pts, serr = core.Sweep(k, sizes, DefaultSweepPrecision)
		s.stats.sweepNanos.Add(int64(time.Since(start)))
		s.stats.sweepsDone.Add(1)
		return serr
	})
	if err != nil {
		return modelstore.Swept{}, err
	}
	return modelstore.Swept{Kernel: k.Name(), Points: pts}, nil
}

// kernelFor builds a fresh virtual kernel for the key's device, its noise
// meter at the start of the key's seeded sequence.
func (s *Server) kernelFor(tenant string, key ModelKey) (*kernels.Virtual, error) {
	dev, err := s.resolveDevice(tenant, key.Device)
	if err != nil {
		return nil, err
	}
	return kernels.NewVirtual(dev.Name(), platform.NewMeter(dev, noiseConfig(key.Noise), key.Seed), GEMMBlockFlops)
}

// storeKey maps an in-memory cache key to its disk-store key; ok is false
// when the server runs without a store. The model kind is dropped — the
// stored artefact is the measurement — and the server's sweep precision
// (s.prec) is folded in, so a sweep stored under another stopping rule (a
// fupermod-bench run with its own precision) is never served.
func (s *Server) storeKey(tenant string, key ModelKey) (modelstore.Key, bool) {
	if s.store == nil {
		return modelstore.Key{}, false
	}
	return modelstore.Key{
		Tenant: tenant,
		Device: key.Device,
		Seed:   key.Seed,
		Noise:  key.Noise,
		Lo:     key.Lo, Hi: key.Hi, N: key.N,
		Prec: s.prec,
	}, true
}

// fitPoints fits one model kind to a finished sweep.
func fitPoints(kind string, pts []core.Point) (core.Model, error) {
	m, err := model.New(kind)
	if err != nil {
		return nil, err
	}
	if err := core.UpdateAll(m, pts); err != nil {
		return nil, err
	}
	return m, nil
}

// noiseConfig maps the request's relative-noise level to the platform's
// noise model, matching fupermod-bench's -noise flag semantics so service
// sweeps reproduce CLI sweeps exactly.
func noiseConfig(rel float64) platform.NoiseConfig {
	if rel <= 0 {
		return platform.Quiet
	}
	return platform.NoiseConfig{Rel: rel, OutlierP: 0.02, OutlierScale: 0.5}
}

// validate reports whether the key is well-formed before any cache work.
func (k ModelKey) validate() error {
	if k.Device == "" {
		return fmt.Errorf("service: device preset is required")
	}
	if k.Noise < 0 || math.IsInf(k.Noise, 0) || math.IsNaN(k.Noise) {
		return fmt.Errorf("service: noise %g must be finite and non-negative", k.Noise)
	}
	if k.Lo <= 0 || k.Hi < k.Lo || k.N <= 0 {
		return fmt.Errorf("service: invalid size grid lo=%d hi=%d n=%d", k.Lo, k.Hi, k.N)
	}
	if k.Model == "" {
		return fmt.Errorf("service: model kind is required")
	}
	return nil
}
