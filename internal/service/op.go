package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync/atomic"

	"fupermod/internal/core"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/pool"
)

// op is one of the five solve endpoints — /v1/partition, /v1/dynpart,
// /v1/balance, /v1/rebalance and /v1/matpart — which all serve through
// one request path (serve). An op supplies only what differs between them.
type op[R any] struct {
	// name prefixes the batch keys serve builds from the request.
	name string
	// tenant points at the request's tenant field.
	tenant func(*R) *string
	// runs is the op's /stats counter of executed solves.
	runs func(*shardStats) *atomic.Int64
	// metered makes the batch leader hold one of the tenant's quota slots
	// around its pool slot, as a cache fill does: its solve sweeps.
	metered bool
	// prepare validates the routed request and normalises it in place
	// (defaults filled in, device refs canonical), resolving what must not
	// run inside a pool slot: fitted models, comm calibrations. It returns
	// the solve, which builds the full response, and the batch key if the
	// op keys on more than its request; an empty key selects the op name
	// plus the normalised request's JSON.
	prepare func(sh *shard, req *R) (solve func() (any, error), key string, err error)
}

// serve is the solve endpoints' request path: decode, route the tenant to
// its shard, prepare, batch under the op's key — the leader's solve runs
// once, in one pool slot, counted — and encode the shared response.
func serve[R any](s *Server, o op[R]) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		req := new(R)
		tenant := o.tenant(req)
		sh, err := s.route(w, r, req, tenant)
		if err != nil {
			return err
		}
		solve, key, err := o.prepare(sh, req)
		if err != nil {
			return err
		}
		if key == "" {
			b, err := json.Marshal(req)
			if err != nil {
				return err
			}
			key = o.name + "|" + string(b)
		}
		resp, err := sh.batched(key, func() (any, error) {
			if o.metered {
				if !sh.quota.acquire(*tenant) {
					return nil, sh.rejectQuota(*tenant)
				}
				defer sh.quota.release(*tenant)
			}
			var resp any
			err := pool.Do(sh.ctx, sh.pool, func(context.Context) error {
				o.runs(&sh.stats).Add(1)
				var err error
				resp, err = solve()
				return err
			})
			return resp, err
		})
		if err != nil {
			return asRequestError(err, "%v", err)
		}
		return writeJSON(w, resp)
	}
}

// route decodes a POST body into req, canonicalises in place the tenant
// it names (tenant points into req), and returns the tenant's shard.
func (s *Server) route(w http.ResponseWriter, r *http.Request, req any, tenant *string) (*shard, error) {
	if err := decode(w, r, req); err != nil {
		return nil, err
	}
	*tenant = TenantOf(*tenant)
	return s.shardFor(*tenant)
}

// checkCount bounds a request's device or process count to [1, MaxDevices].
func checkCount(what string, n int) error {
	if n < 1 || n > MaxDevices {
		return badRequest("%s count %d must be in [1, %d]", what, n, MaxDevices)
	}
	return nil
}

// nonNegative reports whether v is finite and non-negative.
func nonNegative(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// checkIterations validates an observed-iteration matrix: at least one
// iteration of n finite, non-negative times. Given units, the distribution
// the times were measured under, a loaded process must have taken time.
func checkIterations(iters [][]float64, n int, units []int) error {
	if len(iters) == 0 {
		return badRequest("at least one observed iteration is required")
	}
	for i, times := range iters {
		if len(times) != n {
			return badRequest("iteration %d has %d times for %d processes", i, len(times), n)
		}
		for j, t := range times {
			if !nonNegative(t) {
				return badRequest("iteration %d process %d: time %g must be finite and non-negative", i, j, t)
			}
			if units != nil && units[j] > 0 && t == 0 {
				return badRequest("iteration %d process %d: zero time for a loaded process", i, j)
			}
		}
	}
	return nil
}

// normModel fills in the default model kind and checks the kind is known.
func normModel(kind *string, def string) error {
	if *kind == "" {
		*kind = def
	}
	if _, err := model.New(*kind); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

// normAlgorithm fills in the default partitioner and returns it by name.
func normAlgorithm(name *string) (core.Partitioner, error) {
	if *name == "" {
		*name = "geometric"
	}
	p, err := partition.ByName(*name)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return p, nil
}
