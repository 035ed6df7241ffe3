package service

import (
	"context"
	"fmt"

	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/platform"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
)

// acquireKey is the transfer-enabled counterpart of sweepKey: it runs
// inside the store's single-flight fill for a cold key and tries to
// warm-start the model from the store's nearest-fingerprint donor curve
// before paying for a full sweep. One snapshot of the store's donor index
// serves the whole fill: it decides the empty-pool fallback before any
// probe, then ranks by cached fingerprint and reads the points of the top
// Candidates donors only.
//
// The fallback contract matters more than the happy path: whenever
// transfer declines (empty donor pool, residual gate, divergence), the
// fill runs sweepKey on a *fresh* kernel — not the one the probes touched.
// A virtual device's noise meter draws perturbations in measurement order,
// so reusing the probed kernel would produce a sweep that differs from a
// never-transferred server's; the fresh kernel makes the fallback
// byte-identical to running with -transfer off, which the edge-case tests
// assert end to end.
func (sh *shard) acquireKey(tenant string, key ModelKey, sizes []int, sk modelstore.Key) (modelstore.Swept, error) {
	donors, err := sh.store.Donors(sk)
	if err != nil || donors.Len() == 0 {
		// An unreadable donor index is a reason to not transfer, never a
		// reason to fail the fill.
		sh.stats.TransferFallbacks.Add(1)
		return sh.sweptKey(tenant, key, sizes)
	}

	dev, err := sh.resolveDevice(tenant, key.Device)
	if err != nil {
		return modelstore.Swept{}, err
	}
	meter := platform.NewMeter(dev, noiseConfig(key.Noise), key.Seed)
	k, err := kernels.NewVirtual(dev.Name(), meter, GEMMBlockFlops)
	if err != nil {
		return modelstore.Swept{}, err
	}
	cfg := transfer.Config{
		Probes:     sh.transferProbes,
		Budget:     sh.transferBudget,
		Tol:        sh.transferTol,
		Candidates: transfer.DefaultCandidates,
	}
	var res *transfer.Result
	err = pool.Do(sh.ctx, sh.pool, func(context.Context) error {
		prober := func(d int) (core.Point, error) {
			sh.stats.TransferProbes.Add(1)
			return core.Benchmark(k, d, sh.precision)
		}
		var aerr error
		res, aerr = transfer.Acquire(sizes, prober, donors.Source(cfg.Candidates), cfg)
		return aerr
	})
	if err != nil {
		return modelstore.Swept{}, err
	}
	if res.Fallback != "" {
		sh.stats.TransferFallbacks.Add(1)
		return sh.sweptKey(tenant, key, sizes)
	}
	sh.stats.TransferRuns.Add(1)
	prov := fmt.Sprintf("donor=%s scale=%.6g probes=%d/%d maxdiff=%.3g",
		res.Donor, res.Scale, res.Measured, len(sizes), res.MaxDisagree)
	return modelstore.Swept{Kernel: dev.Name(), Points: res.Points, Transfer: prov}, nil
}

// sweptKey adapts sweepKey's result to the provenance-carrying Swept the
// store fill consumes (full sweeps carry none).
func (sh *shard) sweptKey(tenant string, key ModelKey, sizes []int) (modelstore.Swept, error) {
	kernel, pts, err := sh.sweepKey(tenant, key, sizes)
	if err != nil {
		return modelstore.Swept{}, err
	}
	return modelstore.Swept{Kernel: kernel, Points: pts}, nil
}
