package service

import (
	"context"
	"sync"
	"time"

	"fupermod/internal/commmodel"
	"fupermod/internal/core"
	"fupermod/internal/model"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
)

// shard is one replica of the serving core: the per-tenant LRU model
// caches with single-flight fills, the partition batcher, the comm-model
// calibration cache, the machine-file registry and the admission quotas —
// everything that was the whole Server before sharding. A tenant is pinned
// to exactly one live shard by the router's consistent-hash ring, so all
// per-tenant invariants (one sweep per key, deterministic quota
// accounting, batch coalescing) are shard-local and unchanged.
//
// Shards deliberately share the worker pool and the durable store with
// their siblings: the pool because the machine's parallelism does not grow
// with the shard count, the store because it is the coherence point — a
// shard that misses locally checks the store (through its cross-replica
// single-flight Fill) before paying for a sweep.
type shard struct {
	id          int
	cacheSize   int
	batchWindow time.Duration
	precision   core.Precision

	// Transfer options (normalised in New); transfer is never true
	// without a store.
	transfer       bool
	transferProbes int
	transferBudget int
	transferTol    float64

	pool  *pool.Pool
	store *modelstore.Store
	quota *quotas

	// ctx is per-shard so killing one shard unblocks only its own waiters.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenantCache

	batchMu sync.Mutex
	batches map[string]*call[any]
	window  adaptiveWindow

	commMu sync.Mutex
	comms  map[string]*call[commmodel.CommModel]

	machineMu sync.Mutex
	machines  map[string]*tenantMachines

	stats shardStats
}

// newShard constructs one shard against the server's shared pool and
// store. Quotas are per-shard: a tenant lives on exactly one shard, so
// per-shard accounting is per-tenant accounting, deterministically.
func (s *Server) newShard(id int) *shard {
	ctx, cancel := context.WithCancel(context.Background())
	return &shard{
		id:             id,
		cacheSize:      s.cacheSize,
		batchWindow:    s.batchWindow,
		precision:      s.precision,
		transfer:       s.transfer,
		transferProbes: s.transferProbes,
		transferBudget: s.transferBudget,
		transferTol:    s.transferTol,
		pool:           s.pool,
		store:          s.store,
		quota:          newQuotas(s.quotaSlots, s.quotaWeights),
		ctx:            ctx,
		cancel:         cancel,
		tenants:        make(map[string]*tenantCache),
		batches:        make(map[string]*call[any]),
		window:         adaptiveWindow{max: s.batchWindow},
		comms:          make(map[string]*call[commmodel.CommModel]),
		machines:       make(map[string]*tenantMachines),
	}
}

// preloadEntry inserts one intact store entry into the shard's cache as a
// ready model (default kind), provided it was measured under this shard's
// sweep precision. Used at server start and when a revived shard warms
// itself back up — in both cases the effect is first requests that are
// cache hits with zero sweeps.
func (sh *shard) preloadEntry(ent modelstore.Entry) {
	if ent.Key.Prec != modelstore.EncodePrecision(sh.precision) {
		return // another server's stopping rule: not our measurement
	}
	m, err := fitPoints(model.KindPiecewise, ent.Points)
	if err != nil {
		return
	}
	e := &entry{
		// Born published: the stored sweep is the fill's outcome.
		call: &call[fitted]{done: make(chan struct{}), val: fitted{m, ent.Points}},
		key: ModelKey{
			Device: ent.Key.Device,
			Seed:   ent.Key.Seed,
			Noise:  ent.Key.Noise,
			Lo:     ent.Key.Lo, Hi: ent.Key.Hi, N: ent.Key.N,
			Model: model.KindPiecewise,
		},
	}
	close(e.done)
	sh.mu.Lock()
	tc := sh.tenantCacheLocked(ent.Key.Tenant)
	if old, ok := tc.entries[e.key]; ok {
		tc.order.Remove(old.elem)
	}
	e.elem = tc.order.PushFront(e)
	tc.entries[e.key] = e
	sh.evictOverLocked(tc)
	sh.mu.Unlock()
	sh.stats.StoreLoaded.Add(1)
}
