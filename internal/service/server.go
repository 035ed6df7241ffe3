package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"fupermod/internal/commmodel"
	"fupermod/internal/core"
	"fupermod/internal/flight"
	"fupermod/internal/model"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
)

// Server is the partition service's serving core, one per process: the
// per-tenant LRU model caches with single-flight fills, the request
// batcher, the comm-model calibration cache, the machine-file registry and
// the admission quotas. Every sweep, fit and solve runs on one bounded
// worker pool. With a store directory, the durable model store is the
// coherence point between servers: a server that misses locally checks
// the store (through its cross-replica single-flight Fill) before paying
// for a sweep, so servers sharing one directory share their measurements.
// A fleet spreads tenants over servers with cmd/fupermod-route.
//
// Create with New; it is safe for concurrent use by any number of HTTP
// requests.
type Server struct {
	cacheSize int

	// transfer is never true without a store.
	transfer bool

	pool  *pool.Pool
	store *modelstore.Store
	quota *quotas

	// prec is DefaultSweepPrecision in the store's encoding: the Prec of
	// every store key the server fills or preloads.
	prec string

	// ctx is the server's life: Close ends it with errClosed, unblocking
	// every waiter.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu      sync.Mutex
	tenants map[string]*tenantCache

	batches flight.Group[string, any]
	comms   flight.Group[string, commmodel.CommModel]

	machineMu sync.Mutex
	machines  map[string]*tenantMachines

	stats serverStats
}

// errClosed is the cause a closed server's waiters return.
var errClosed = fmt.Errorf("service: shutting down: %w", context.Canceled)

// New returns a ready-to-serve Server. With cfg.StoreDir set, the store
// directory is opened (created if absent) and the stored entries measured
// under DefaultSweepPrecision are preloaded into the tenant caches before
// the first request.
func New(cfg Config) (*Server, error) {
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	if cfg.Transfer && cfg.StoreDir == "" {
		return nil, fmt.Errorf("service: Transfer requires StoreDir (the store is the donor pool)")
	}
	var st *modelstore.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = modelstore.Open(cfg.StoreDir); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cacheSize: cacheSize,
		transfer:  cfg.Transfer,
		pool:      pool.New(cfg.Workers),
		store:     st,
		quota:     newQuotas(cfg.QuotaSlots, cfg.QuotaWeights),
		prec:      modelstore.EncodePrecision(DefaultSweepPrecision),
		ctx:       ctx,
		cancel:    cancel,
		tenants:   make(map[string]*tenantCache),
		machines:  make(map[string]*tenantMachines),
	}
	if st != nil {
		s.preload()
	}
	return s, nil
}

// preload warms the tenant caches from the disk store, so first requests
// are cache hits with zero sweeps. It fits only what the LRU keeps: walking
// the entries newest first, it fits each tenant's entries until cacheSize
// have fitted, and appends each at the back, so the cache ends as fitting
// every entry in store order would leave it. The entries passed over still
// count as loaded; a fill reads them from the store on first use. Corrupt
// files are only counted — the torn entries re-sweep (and heal) lazily on
// first use.
func (s *Server) preload() {
	entries, corrupt, err := s.store.Load()
	if err != nil {
		return
	}
	s.stats.StoreCorrupt.Add(int64(len(corrupt)))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(entries) - 1; i >= 0; i-- {
		ent := entries[i]
		if ent.Key.Prec != s.prec {
			continue // another server's stopping rule: not our measurement
		}
		if tc, ok := s.tenants[ent.Key.Tenant]; ok && tc.order.Len() >= tc.max {
			s.stats.StoreLoaded.Add(1) // the LRU would evict it at once
			continue
		}
		m, err := fitPoints(model.KindPiecewise, ent.Points)
		if err != nil {
			continue
		}
		tc := s.tenantCacheLocked(ent.Key.Tenant)
		e := &entry{
			// Born published: the model fitted to the stored sweep is the
			// fill's outcome.
			Call: flight.Published[core.Model](m),
			key: ModelKey{
				Device: ent.Key.Device,
				Seed:   ent.Key.Seed,
				Noise:  ent.Key.Noise,
				Lo:     ent.Key.Lo, Hi: ent.Key.Hi, N: ent.Key.N,
				Model: model.KindPiecewise,
			},
		}
		e.elem = tc.order.PushBack(e)
		tc.entries[e.key] = e
		s.stats.StoreLoaded.Add(1)
	}
}

// Close releases the server: waiters on in-flight cache fills, comm
// calibrations and batches are unblocked with a shutdown error. Call after
// draining the HTTP listener (http.Server.Shutdown) so in-flight requests
// complete first.
func (s *Server) Close() { s.cancel(errClosed) }

// snapshot assembles the /stats view.
func (s *Server) snapshot() Snapshot {
	snap := Snapshot{
		Requests:      s.stats.requests.Load(),
		Errors:        s.stats.errors.Load(),
		ShardCounters: s.stats.counters(),
		Workers:       s.pool.Workers(),
	}
	if n := s.stats.latencyN.Load(); n > 0 {
		snap.AvgLatencyMicros = float64(s.stats.latencyT.Load()) / float64(n) / 1e3
	}
	s.mu.Lock()
	snap.Tenants = len(s.tenants)
	for _, tc := range s.tenants {
		snap.CacheEntries += tc.order.Len()
	}
	s.mu.Unlock()
	if s.store != nil {
		if st, err := s.store.Stats(); err == nil {
			snap.Store = st
		}
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"}
	}
	return writeJSON(w, s.snapshot())
}
