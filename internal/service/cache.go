package service

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"time"

	"fupermod/internal/core"
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

func (k ModelKey) String() string {
	return fmt.Sprintf("%s/seed=%d/noise=%g/grid=%d:%d:%d/%s",
		k.Device, k.Seed, k.Noise, k.Lo, k.Hi, k.N, k.Model)
}

// fitted is what a cache fill produces: the model and the points it was
// fitted to.
type fitted struct {
	model  core.Model
	points []core.Point
}

// entry is one cache slot: the fill's call, published before the fill
// runs. Closing done is the happens-before edge making the fitted model
// safe for concurrent read-only use by any number of partition solves.
type entry struct {
	*call[fitted]
	key  ModelKey
	elem *list.Element
}

// tenantCache is one tenant's LRU-bounded model cache. It is guarded by
// the shard's cache mutex, not its own: eviction decisions and
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

// getModel returns the fitted model and raw points for key in the given
// tenant's cache, sweeping and fitting on a cache miss. Concurrent
// requests for the same key are deduplicated: exactly one performs the
// sweep, the rest wait for it (single-flight). Failed fills, a panicking
// one included, are removed from the cache so a later request can retry.
// Waiters deliberately observe the shard's lifetime, not their own request
// context: the fill belongs to the cache, not to any single client, so a
// client disconnecting never poisons the entry for the others.
func (sh *shard) getModel(tenant string, key ModelKey) (core.Model, []core.Point, error) {
	sh.mu.Lock()
	tc := sh.tenantCacheLocked(tenant)
	if e, ok := tc.entries[key]; ok {
		tc.order.MoveToFront(e.elem)
		select {
		case <-e.done:
			sh.stats.CacheHits.Add(1)
		default:
			sh.stats.CacheCoalesced.Add(1)
		}
		sh.mu.Unlock()
		f, err := e.wait(sh.ctx)
		return f.model, f.points, err
	}
	// Admission control happens exactly here: a miss commits the tenant to
	// a fill — the expensive, pool-occupying operation the quota meters.
	// Hits and coalesced waits above are deliberately exempt.
	if !sh.quota.acquire(tenant) {
		sh.mu.Unlock()
		return nil, nil, sh.rejectQuota(tenant)
	}
	sh.stats.CacheMisses.Add(1)
	e := &entry{call: newCall[fitted](), key: key}
	e.elem = tc.order.PushFront(e)
	tc.entries[key] = e
	sh.evictOverLocked(tc)
	sh.mu.Unlock()

	f, err := e.run(func() (fitted, error) { return sh.fill(tenant, key) })
	sh.quota.release(tenant)
	if err != nil {
		// Drop the failed entry (if it has not been evicted and replaced
		// already) so the next identical request retries.
		sh.mu.Lock()
		if cur, ok := tc.entries[key]; ok && cur == e {
			tc.order.Remove(e.elem)
			delete(tc.entries, key)
		}
		sh.mu.Unlock()
	}
	return f.model, f.points, err
}

// tenantCacheLocked returns (creating if needed) the tenant's cache.
// Caller holds sh.mu.
func (sh *shard) tenantCacheLocked(tenant string) *tenantCache {
	tc, ok := sh.tenants[tenant]
	if !ok {
		tc = newTenantCache(sh.cacheSize)
		sh.tenants[tenant] = tc
	}
	return tc
}

// evictOverLocked applies the LRU bound. Caller holds sh.mu.
func (sh *shard) evictOverLocked(tc *tenantCache) {
	for tc.order.Len() > tc.max {
		oldest := tc.order.Back()
		victim := oldest.Value.(*entry)
		tc.order.Remove(oldest)
		delete(tc.entries, victim.key)
		sh.stats.CacheEvictions.Add(1)
	}
}

// fill produces the fitted model for key. With a store configured, the fill
// goes through the store's cross-replica single-flight (modelstore.Fill):
// the store is consulted before the device is even resolved — a stored
// sweep is servable when its device can no longer be resolved (a machine
// file not yet re-uploaded after a restart) — and a miss sweeps exactly
// once per key across every replica sharing the store, each one mapping
// the outcome onto its own counters. Storeless shards sweep directly; the
// cache-entry single-flight already deduplicates within the shard.
func (sh *shard) fill(tenant string, key ModelKey) (fitted, error) {
	sizes := core.LogSizes(key.Lo, key.Hi, key.N)
	if len(sizes) == 0 {
		return fitted{}, fmt.Errorf("service: invalid size grid lo=%d hi=%d n=%d", key.Lo, key.Hi, key.N)
	}
	sk, stored := sh.storeKey(tenant, key)
	if stored {
		ent, info, err := sh.store.FillProv(sh.ctx, sk, func() (modelstore.Swept, error) {
			if sh.transfer {
				return sh.acquireKey(tenant, key, sizes, sk)
			}
			return sh.sweptKey(tenant, key, sizes)
		})
		if info.Corrupt {
			// Torn or damaged file: the flight re-swept and the spill healed
			// the entry.
			sh.stats.StoreCorrupt.Add(1)
		}
		if err != nil {
			return fitted{}, err
		}
		m, ferr := fitPoints(key.Model, ent.Points)
		if ferr == nil {
			switch info.Source {
			case modelstore.SourceDisk:
				sh.stats.StoreHits.Add(1)
			case modelstore.SourceSwept:
				// Write-behind spill: failures keep the in-memory entry valid
				// and are only counted — durability is best-effort per fill.
				if info.PutErr != nil {
					sh.stats.StoreErrors.Add(1)
				} else {
					sh.stats.StoreSpills.Add(1)
				}
			case modelstore.SourceJoined:
				// Another replica's sweep answered us: nothing of ours to
				// count — the sweeping replica owns the sweep and the spill.
			}
			return fitted{m, ent.Points}, nil
		}
		if info.Source != modelstore.SourceDisk {
			return fitted{}, ferr
		}
		// A disk entry this model kind cannot be fitted to: fall through to
		// a clean local sweep; the spill below replaces the entry.
	}
	kernel, pts, err := sh.sweepKey(tenant, key, sizes)
	if err != nil {
		return fitted{}, err
	}
	m, err := fitPoints(key.Model, pts)
	if err != nil {
		return fitted{}, err
	}
	if stored {
		if err := sh.store.Put(sk, kernel, pts); err != nil {
			sh.stats.StoreErrors.Add(1)
		} else {
			sh.stats.StoreSpills.Add(1)
		}
	}
	return fitted{m, pts}, nil
}

// sweepKey resolves the key's device and runs its benchmark sweep on the
// shared worker pool so concurrent fills never oversubscribe the machine.
// The sweep is executed serially inside one pool slot: the noise meter
// draws pseudo-random perturbations in sequence, so a serial sweep is
// deterministic for a given key — the property that makes cache entries
// reproducible, disk-store spills replayable, and service responses
// byte-identical to the direct library path on every replica.
func (sh *shard) sweepKey(tenant string, key ModelKey, sizes []int) (string, []core.Point, error) {
	dev, err := sh.resolveDevice(tenant, key.Device)
	if err != nil {
		return "", nil, err
	}
	meter := platform.NewMeter(dev, noiseConfig(key.Noise), key.Seed)
	k, err := kernels.NewVirtual(dev.Name(), meter, GEMMBlockFlops)
	if err != nil {
		return "", nil, err
	}
	var pts []core.Point
	err = pool.Do(sh.ctx, sh.pool, func(context.Context) error {
		sh.stats.Sweeps.Add(1)
		start := time.Now()
		var serr error
		pts, serr = core.Sweep(k, sizes, sh.precision)
		sh.stats.sweepNanos.Add(int64(time.Since(start)))
		sh.stats.sweepsDone.Add(1)
		return serr
	})
	if err != nil {
		return "", nil, err
	}
	return dev.Name(), pts, nil
}

// storeKey maps an in-memory cache key to its disk-store key; ok is false
// when the shard runs without a store. The model kind is dropped — the
// stored artefact is the measurement — and the shard's sweep precision is
// folded in, so servers with different stopping rules never share entries.
func (sh *shard) storeKey(tenant string, key ModelKey) (modelstore.Key, bool) {
	if sh.store == nil {
		return modelstore.Key{}, false
	}
	return modelstore.Key{
		Tenant: tenant,
		Device: key.Device,
		Seed:   key.Seed,
		Noise:  key.Noise,
		Lo:     key.Lo, Hi: key.Hi, N: key.N,
		Prec: modelstore.EncodePrecision(sh.precision),
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
