package service

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"fupermod/internal/service/modelstore"
)

// serverStats holds the server's monotonically increasing counters. All
// fields are updated with atomics so handlers never serialise on a stats
// lock; the per-tenant quota-rejection map is the one mutex-guarded
// exception (it is touched only on the rejection path, which is already
// the slow lane). Exported counters are published, and documented, as the
// same-named ShardCounters fields.
type serverStats struct {
	requests atomic.Int64 // HTTP requests accepted (all endpoints)
	errors   atomic.Int64 // requests answered with a non-2xx status
	latencyN atomic.Int64 // completed requests with measured latency
	latencyT atomic.Int64 // cumulative handler latency, nanoseconds

	CacheHits, CacheMisses, CacheCoalesced, CacheEvictions atomic.Int64

	Sweeps     atomic.Int64
	sweepsDone atomic.Int64 // benchmark sweeps completed (wall time recorded)
	sweepNanos atomic.Int64 // cumulative wall time of the completed sweeps

	StoreLoaded, StoreHits, StoreSpills, StoreCorrupt, StoreErrors atomic.Int64

	TransferRuns, TransferProbes, TransferFallbacks atomic.Int64

	BatchSolves, BatchJoined, BatchWindowSkips atomic.Int64

	CommCalibrations atomic.Int64

	DynpartRuns, BalanceRuns, RebalanceRuns, MatpartRuns, MachineUploads atomic.Int64

	QuotaRejections atomic.Int64
	quotaMu         sync.Mutex
	quotaByTenant   map[string]int64
}

// counterFields pairs, by field index, each int64 counter of
// ShardCounters with the serverStats atomic of the same name, so a counter
// is declared in those two structs and nowhere else. A ShardCounters
// counter without its atomic fails at start-up.
var counterFields = func() (pairs [][2]int) {
	ct, st := reflect.TypeFor[ShardCounters](), reflect.TypeFor[serverStats]()
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		sf, ok := st.FieldByName(f.Name)
		if !ok || sf.Type != reflect.TypeFor[atomic.Int64]() {
			panic("service: ShardCounters." + f.Name + " has no serverStats counter")
		}
		pairs = append(pairs, [2]int{i, sf.Index[0]})
	}
	return pairs
}()

// rejectQuota records one quota rejection for the tenant.
func (s *serverStats) rejectQuota(tenant string) {
	s.QuotaRejections.Add(1)
	s.quotaMu.Lock()
	if s.quotaByTenant == nil {
		s.quotaByTenant = make(map[string]int64)
	}
	s.quotaByTenant[tenant]++
	s.quotaMu.Unlock()
}

// counters captures the server's counters as one addable value.
func (s *serverStats) counters() ShardCounters {
	var c ShardCounters
	cv, sv := reflect.ValueOf(&c).Elem(), reflect.ValueOf(s).Elem()
	for _, f := range counterFields {
		cv.Field(f[0]).SetInt(sv.Field(f[1]).Addr().Interface().(*atomic.Int64).Load())
	}
	s.quotaMu.Lock()
	if len(s.quotaByTenant) > 0 {
		c.QuotaRejectionsByTenant = make(map[string]int64, len(s.quotaByTenant))
		for t, n := range s.quotaByTenant {
			c.QuotaRejectionsByTenant[t] = n
		}
	}
	s.quotaMu.Unlock()
	return c
}

// observe records one completed request.
func (s *serverStats) observe(d time.Duration, status int) {
	if status >= 300 {
		s.errors.Add(1)
	}
	s.latencyN.Add(1)
	s.latencyT.Add(int64(d))
}

// ShardCounters is the counter slice of the /stats schema — a server's
// cache, sweep, store, transfer, batch and endpoint counters — embedded in
// Snapshot and summed field by field by MergeSnapshots across a fleet
// (each backend of a fleet serves one shard of the tenants, hence the
// name). The schema is pinned by a golden-file test (stats_golden_test.go):
// new counters must be added there deliberately, never by accident. Each
// int64 counter is fed by the serverStats atomic of the same name
// (counterFields).
type ShardCounters struct {
	// Cache counters: a hit returns a fitted model with no work, a miss
	// triggers one fill, a coalesced request waited on a fill another
	// request had already started (single-flight), and evictions count
	// entries dropped by the per-tenant LRU bound.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	CacheEvictions int64 `json:"cache_evictions"`

	// Sweeps counts benchmark sweeps actually executed — the expensive
	// operation the cache, single-flight and disk store exist to avoid.
	Sweeps int64 `json:"sweeps"`

	// Disk-store counters: entries found under this server's precision
	// at start (preloaded, or passed over because the tenant's LRU was
	// full), fills answered from disk instead of sweeping, sweeps spilled
	// to disk, corrupt files encountered (each one re-swept, never
	// served), and failed spill writes.
	StoreLoaded  int64 `json:"store_loaded"`
	StoreHits    int64 `json:"store_hits"`
	StoreSpills  int64 `json:"store_spills"`
	StoreCorrupt int64 `json:"store_corrupt"`
	StoreErrors  int64 `json:"store_errors"`

	// Cross-device transfer counters: fills answered by a warm-started
	// model, benchmark probes those attempts spent (compare against
	// Sweeps × grid size for the saving), and attempts that fell back to
	// the ordinary full sweep (no donor, gate rejection, divergence).
	TransferRuns      int64 `json:"transfer_runs"`
	TransferProbes    int64 `json:"transfer_probes"`
	TransferFallbacks int64 `json:"transfer_fallbacks"`

	// BatchSolves counts solver calls, BatchJoined the requests that were
	// answered by a run another request triggered, and BatchWindowSkips
	// the requests the adaptive controller exempted from waiting because
	// traffic was idle.
	BatchSolves      int64 `json:"batch_solves"`
	BatchJoined      int64 `json:"batch_joined"`
	BatchWindowSkips int64 `json:"batch_window_skips"`

	// CommCalibrations counts communication-model calibrations executed;
	// repeated comm-aware requests are served from the calibration cache.
	CommCalibrations int64 `json:"comm_calibrations"`

	// Dynamic-endpoint counters: model-free partition runs, balance
	// replays, rebalance decisions, 2D matrix arrangements, and accepted
	// machine-file uploads.
	DynpartRuns    int64 `json:"dynpart_runs"`
	BalanceRuns    int64 `json:"balance_runs"`
	RebalanceRuns  int64 `json:"rebalance_runs"`
	MatpartRuns    int64 `json:"matpart_runs"`
	MachineUploads int64 `json:"machine_uploads"`

	// QuotaRejections counts requests rejected by the per-tenant
	// admission quota, in total and per tenant.
	QuotaRejections         int64            `json:"quota_rejections"`
	QuotaRejectionsByTenant map[string]int64 `json:"quota_rejections_by_tenant,omitempty"`
}

// add accumulates o into c (map keys merged by sum).
func (c *ShardCounters) add(o ShardCounters) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for _, f := range counterFields {
		cv.Field(f[0]).SetInt(cv.Field(f[0]).Int() + ov.Field(f[0]).Int())
	}
	if len(o.QuotaRejectionsByTenant) > 0 {
		if c.QuotaRejectionsByTenant == nil {
			c.QuotaRejectionsByTenant = make(map[string]int64, len(o.QuotaRejectionsByTenant))
		}
		for t, n := range o.QuotaRejectionsByTenant {
			c.QuotaRejectionsByTenant[t] += n
		}
	}
}

// Snapshot is the JSON shape of the /stats endpoint: the request
// counters, the server's counters and its cache population.
type Snapshot struct {
	// Requests counts every request accepted, Errors those answered with
	// a non-2xx status; AvgLatencyMicros is the mean handler latency.
	Requests         int64   `json:"requests"`
	Errors           int64   `json:"errors"`
	AvgLatencyMicros float64 `json:"avg_latency_micros"`

	ShardCounters

	// Tenants and CacheEntries describe the cache population.
	Tenants      int `json:"tenants"`
	CacheEntries int `json:"cache_entries"`

	// Workers is the size of the server's worker pool.
	Workers int `json:"workers"`

	// Store is the on-disk model store's census (entries, bytes, per-tenant
	// counts, transferred entries) — the donor pool cross-device transfer
	// draws from. All-zero on storeless servers.
	Store modelstore.StoreStats `json:"store"`
}

// MergeSnapshots aggregates whole-server snapshots — the route CLI uses it
// to merge the /stats of every live backend into one fleet view.
// AvgLatencyMicros is weighted by request count.
func MergeSnapshots(snaps []Snapshot) Snapshot {
	var out Snapshot
	var latT float64
	for _, s := range snaps {
		out.Requests += s.Requests
		out.Errors += s.Errors
		latT += s.AvgLatencyMicros * float64(s.Requests)
		out.ShardCounters.add(s.ShardCounters)
		out.Tenants += s.Tenants
		out.CacheEntries += s.CacheEntries
		out.Workers += s.Workers
		// Store censuses sum like Workers do: replicas sharing one store
		// directory each report the same files, so the fleet view counts
		// capacity per backend, not unique bytes.
		out.Store.Add(s.Store)
	}
	if out.Requests > 0 {
		out.AvgLatencyMicros = latT / float64(out.Requests)
	}
	return out
}
