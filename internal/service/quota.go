package service

import (
	"math"
	"net/http"
	"sync"
	"time"
)

// quotas is the weighted fair admission controller for the expensive,
// pool-occupying work (benchmark sweeps and dynamic-partition runs). Each
// tenant may hold at most slots×weight such operations in flight; a
// request that would exceed the bound is rejected with 429 + Retry-After
// instead of queueing, so one tenant's sweep storm consumes its own share
// of the shared pool and nothing more — another tenant's single request is
// delayed by at most whatever sweep already occupies its slot.
//
// Cache hits, coalesced waits, disk-store hits and plain solver calls are
// deliberately exempt: they do not monopolise the pool, and rejecting them
// would punish exactly the requests the cache exists to make cheap.
type quotas struct {
	slots   int            // in-flight operations per weight unit
	weights map[string]int // tenant → weight; absent tenants weigh 1

	mu       sync.Mutex
	inflight map[string]int
}

// newQuotas returns the admission controller, or nil (admit everything)
// when slots <= 0.
func newQuotas(slots int, weights map[string]int) *quotas {
	if slots <= 0 {
		return nil
	}
	w := make(map[string]int, len(weights))
	for t, v := range weights {
		w[TenantOf(t)] = v
	}
	return &quotas{slots: slots, weights: w, inflight: make(map[string]int)}
}

// limit returns the tenant's in-flight bound.
func (q *quotas) limit(tenant string) int {
	w, ok := q.weights[tenant]
	if !ok || w < 1 {
		w = 1
	}
	return q.slots * w
}

// acquire admits one expensive operation for the tenant, reporting false
// on breach. Callers must release() exactly once per successful acquire.
func (q *quotas) acquire(tenant string) bool {
	if q == nil {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] >= q.limit(tenant) {
		return false
	}
	q.inflight[tenant]++
	return true
}

func (q *quotas) release(tenant string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] > 0 {
		q.inflight[tenant]--
	}
}

// rejectQuota builds the 429 a breached tenant receives, records it, and
// estimates Retry-After from the observed mean sweep duration — the time
// scale at which an in-flight slot frees up.
func (s *Server) rejectQuota(tenant string) error {
	s.stats.rejectQuota(tenant)
	return &httpError{
		status:     http.StatusTooManyRequests,
		msg:        "tenant " + tenant + " exceeded its in-flight sweep quota",
		retryAfter: s.retryAfterSecs(),
	}
}

// retryAfterSecs is the mean observed sweep duration rounded up to whole
// seconds, at least 1. The mean divides by *completed* sweeps only:
// dividing by started sweeps (as this used to) counts every in-flight
// sweep's zero nanoseconds, biasing the estimate toward the 1s floor
// exactly when the server is busiest — the moment the estimate matters.
func (s *Server) retryAfterSecs() int {
	n := s.stats.sweepsDone.Load()
	if n <= 0 {
		// Nothing has completed yet (cold server, or every sweep still in
		// flight): there is no observed time scale, only the floor.
		return 1
	}
	avg := time.Duration(s.stats.sweepNanos.Load() / n)
	secs := int(math.Ceil(avg.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
