package service

import (
	"fmt"
	"sync/atomic"

	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
	"fupermod/internal/platform"
)

// The dynamic endpoints expose the paper's model-free algorithms (§4.4)
// through the same tenant/batch/quota plumbing as the model-based path:
//
//	/v1/dynpart  runs dynamic data partitioning — iterative benchmarking of
//	             partial models until the distribution stabilises. The run
//	             is expensive (it sweeps) and therefore quota-metered and
//	             batched: an identical run that arrives while one is in
//	             flight shares its result.
//	/v1/balance  replays an application's observed per-iteration times
//	             through the dynamic load balancer. The replay is stateless
//	             — the full observation history travels in the request — so
//	             identical histories give identical proposals whether
//	             replayed cold, batched, or after a restart.

// DefaultDynEps is the dynpart convergence threshold when the request
// leaves eps unset.
const DefaultDynEps = 0.05

// DynpartRequest asks for a model-free dynamic partitioning run.
type DynpartRequest struct {
	Tenant  string       `json:"tenant"`
	Devices []DeviceSpec `json:"devices"`
	D       int          `json:"d"`
	// Model is the partial-model kind grown at each step; empty selects
	// the piecewise FPM.
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner invoked at every step; empty selects
	// geometric.
	Algorithm string `json:"algorithm,omitempty"`
	// Eps is the relative-change convergence threshold; 0 selects
	// DefaultDynEps.
	Eps float64 `json:"eps,omitempty"`
	// MaxIters caps the iterations; 0 selects the library default.
	MaxIters int `json:"max_iters,omitempty"`
}

// DynpartStep traces one iteration of the run (the paper's Fig. 3 rows).
type DynpartStep struct {
	Units       []int   `json:"units"`
	Change      float64 `json:"change"`
	ModelPoints int     `json:"model_points"`
}

// DynpartResponse returns the converged distribution and the trace.
type DynpartResponse struct {
	Algorithm  string        `json:"algorithm"`
	Model      string        `json:"model"`
	D          int           `json:"d"`
	Parts      []PartPayload `json:"parts"`
	MakespanS  float64       `json:"makespan_s"`
	Steps      []DynpartStep `json:"steps"`
	Converged  bool          `json:"converged"`
	BenchmarkS float64       `json:"benchmark_s"`
}

var dynpartOp = op[DynpartRequest]{
	name:    "dyn",
	tenant:  func(r *DynpartRequest) *string { return &r.Tenant },
	runs:    func(s *serverStats) *atomic.Int64 { return &s.DynpartRuns },
	metered: true,
	prepare: (*Server).prepareDynpart,
}

// prepareDynpart resolves and canonicalises every device up front: a
// dynpart run benchmarks real (virtual) devices, so machine refs must be
// live. The solve benchmarks the kernels serially inside its one pool
// slot, which keeps the seeded meters deterministic.
func (s *Server) prepareDynpart(req *DynpartRequest) (func() (any, error), string, error) {
	if err := checkCount("device", len(req.Devices)); err != nil {
		return nil, "", err
	}
	if req.D < len(req.Devices) {
		return nil, "", badRequest("problem size d=%d smaller than device count %d", req.D, len(req.Devices))
	}
	if err := normModel(&req.Model, model.KindPiecewise); err != nil {
		return nil, "", err
	}
	algo, err := normAlgorithm(&req.Algorithm)
	if err != nil {
		return nil, "", err
	}
	if req.Eps == 0 {
		req.Eps = DefaultDynEps
	}
	if !nonNegative(req.Eps) {
		return nil, "", badRequest("eps %g must be finite and positive", req.Eps)
	}
	if req.MaxIters < 0 {
		return nil, "", badRequest("max_iters must be non-negative, got %d", req.MaxIters)
	}
	devs := make([]platform.Device, len(req.Devices))
	for i, spec := range req.Devices {
		key, err := s.keyFor(req.Tenant, spec, Grid{Lo: 1, Hi: req.D, N: 1}, req.Model)
		if err != nil {
			return nil, "", err
		}
		if devs[i], err = s.resolveDevice(req.Tenant, key.Device); err != nil {
			return nil, "", badRequest("device %d (%s): %v", i, spec.Preset, err)
		}
		req.Devices[i].Preset = key.Device
	}
	solve := func() (any, error) {
		kernelSet := make([]core.Kernel, len(devs))
		for i, dev := range devs {
			meter := platform.NewMeter(dev, platform.RelNoise(req.Devices[i].Noise), req.Devices[i].Seed)
			k, err := kernels.NewVirtual(dev.Name(), meter, GEMMBlockFlops)
			if err != nil {
				return nil, err
			}
			kernelSet[i] = k
		}
		res, err := dynamic.PartitionDynamic(kernelSet, req.D, dynamic.Config{
			Algorithm: algo,
			NewModel:  func() core.Model { m, _ := model.New(req.Model); return m },
			Precision: DefaultSweepPrecision,
			Eps:       req.Eps,
			MaxIters:  req.MaxIters,
		})
		if err != nil {
			return nil, err
		}
		resp := &DynpartResponse{
			Algorithm:  req.Algorithm,
			Model:      req.Model,
			D:          req.D,
			Parts:      make([]PartPayload, len(res.Dist.Parts)),
			MakespanS:  res.Dist.MaxTime(),
			Steps:      make([]DynpartStep, len(res.Steps)),
			Converged:  res.Converged,
			BenchmarkS: res.BenchmarkSeconds,
		}
		for i, p := range res.Dist.Parts {
			resp.Parts[i] = PartPayload{Device: req.Devices[i].Preset, Units: p.D, TimeS: p.Time}
		}
		for i, st := range res.Steps {
			resp.Steps[i] = DynpartStep{Units: st.Dist.Sizes(), Change: st.Change, ModelPoints: st.ModelPoints}
		}
		return resp, nil
	}
	return solve, "", nil
}

// BalanceRequest replays observed per-iteration times through the dynamic
// load balancer (the Jacobi use case): iteration i's times must be the
// per-process compute times measured under the distribution the balancer
// proposed after iteration i-1 (even split for i = 0).
type BalanceRequest struct {
	Tenant string `json:"tenant"`
	// N is the process count, D the total problem size.
	N int `json:"n"`
	D int `json:"d"`
	// Model is the partial-model kind; empty selects the piecewise FPM.
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner; empty selects geometric.
	Algorithm string `json:"algorithm,omitempty"`
	// MinGain suppresses redistribution below this relative predicted
	// improvement.
	MinGain float64 `json:"min_gain,omitempty"`
	// Iterations holds the observed times, oldest first, each of length N.
	Iterations [][]float64 `json:"iterations"`
}

// BalanceIteration is the balancer's proposal after one observation.
type BalanceIteration struct {
	Units   []int `json:"units"`
	Changed bool  `json:"changed"`
}

// BalanceResponse returns the proposal trace and the final distribution
// the application should use next.
type BalanceResponse struct {
	Algorithm  string             `json:"algorithm"`
	Model      string             `json:"model"`
	D          int                `json:"d"`
	N          int                `json:"n"`
	Iterations []BalanceIteration `json:"iterations"`
	Units      []int              `json:"units"`
}

var balanceOp = op[BalanceRequest]{
	name:    "bal",
	tenant:  func(r *BalanceRequest) *string { return &r.Tenant },
	runs:    func(s *serverStats) *atomic.Int64 { return &s.BalanceRuns },
	prepare: prepareBalance,
}

// prepareBalance validates a replay. The solve is pure computation: model
// updates and solver calls.
func prepareBalance(_ *Server, req *BalanceRequest) (func() (any, error), string, error) {
	if err := checkCount("process", req.N); err != nil {
		return nil, "", err
	}
	if req.D < req.N {
		return nil, "", badRequest("problem size d=%d smaller than process count %d", req.D, req.N)
	}
	if err := checkIterations(req.Iterations, req.N, nil); err != nil {
		return nil, "", err
	}
	if err := normModel(&req.Model, model.KindPiecewise); err != nil {
		return nil, "", err
	}
	algo, err := normAlgorithm(&req.Algorithm)
	if err != nil {
		return nil, "", err
	}
	if !nonNegative(req.MinGain) {
		return nil, "", badRequest("min_gain %g must be finite and non-negative", req.MinGain)
	}
	solve := func() (any, error) {
		cfg := dynamic.Config{
			Algorithm: algo,
			NewModel:  func() core.Model { m, _ := model.New(req.Model); return m },
		}
		b, err := dynamic.NewBalancer(cfg, req.D, req.N, req.MinGain)
		if err != nil {
			return nil, err
		}
		resp := &BalanceResponse{Algorithm: req.Algorithm, Model: req.Model, D: req.D, N: req.N}
		for i, times := range req.Iterations {
			changed, err := b.Observe(times)
			if err != nil {
				return nil, fmt.Errorf("iteration %d: %w", i, err)
			}
			resp.Iterations = append(resp.Iterations, BalanceIteration{Units: b.Dist().Sizes(), Changed: changed})
		}
		resp.Units = resp.Iterations[len(resp.Iterations)-1].Units
		return resp, nil
	}
	return solve, "", nil
}
