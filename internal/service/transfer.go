package service

import (
	"context"

	"fupermod/internal/core"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
)

// acquireKey is the transfer-enabled counterpart of sweepKey: it runs
// inside the store's single-flight fill for a cold key and tries to
// warm-start the model from the store's nearest-fingerprint donor curve
// (modelstore's Acquire, on one pool slot) before paying for a full sweep.
//
// The fallback contract matters more than the happy path: whenever
// transfer declines (empty donor pool, residual gate, divergence), the
// fill runs sweepKey on a *fresh* kernel — not the one the probes touched.
// A virtual device's noise meter draws perturbations in measurement order,
// so reusing the probed kernel would produce a sweep that differs from a
// never-transferred server's; the fresh kernel makes the fallback
// byte-identical to running with -transfer off, which the edge-case tests
// assert end to end.
func (s *Server) acquireKey(tenant string, key ModelKey, sizes []int, sk modelstore.Key) (modelstore.Swept, error) {
	var k core.Kernel
	prober := func() (transfer.Prober, error) {
		var err error
		if k, err = s.kernelFor(tenant, key); err != nil {
			return nil, err
		}
		return func(d int) (core.Point, error) {
			s.stats.TransferProbes.Add(1)
			return core.Benchmark(k, d, s.precision)
		}, nil
	}
	var res *transfer.Result
	err := pool.Do(s.ctx, s.pool, func(context.Context) error {
		var aerr error
		res, aerr = s.store.Acquire(sk, sizes, prober, transfer.Config{Probes: DefaultTransferProbes, Tol: DefaultTransferTol})
		return aerr
	})
	if err != nil {
		return modelstore.Swept{}, err
	}
	if res.Fallback != "" {
		s.stats.TransferFallbacks.Add(1)
		return s.sweepKey(tenant, key, sizes)
	}
	s.stats.TransferRuns.Add(1)
	return modelstore.Swept{Kernel: k.Name(), Points: res.Points, Transfer: modelstore.Provenance(res, len(sizes))}, nil
}
