// Package service is the long-lived, multi-tenant partition server: the
// paper's one-shot measure → model → partition workflow (§4.1–4.3) turned
// into a concurrent in-process HTTP+JSON service. A process holds one
// serving core (Server, server.go), which owns:
//
//   - per-tenant fitted-model LRU caches keyed by (device, noise seed,
//     size grid, model kind) with single-flight deduplication —
//     concurrent identical requests trigger exactly one benchmark sweep —
//     batching of identical requests that arrive while their solve is in
//     flight, a comm-model calibration cache, and weighted fair admission
//     quotas, all coalescing through package flight;
//   - one bounded worker pool running every sweep, fit and solver call, so
//     the service never oversubscribes the machine;
//   - the durable model store (package modelstore), the source of truth
//     keeping the caches of servers that share one store directory
//     coherent: a server that misses locally checks the store — through
//     its cross-replica single-flight — before paying for a sweep.
//
// A fleet scales out as several processes on one store directory behind
// cmd/fupermod-route, which spreads tenants over them with a consistent-
// hash ring (package ring). Responses are pure functions of their
// requests: any tenant, any number of servers, any failover history —
// same bytes as the direct library path (the cross-replica differential
// battery in replica_diff_test.go pins exactly this).
//
// The serving-layer shape — caching, request coalescing, batching, bounded
// concurrency, graceful drain — follows Lastovetsky–Reddy–Rychkov–Clarke's
// self-adaptable partitioning (models refined online across requests) and
// Stevens–Klöckner's cached black-box performance models.
//
// Endpoints:
//
//	POST /v1/measure    sweep one device's size grid, return the points
//	POST /v1/model      fit a model to the sweep, return knots + evaluation
//	POST /v1/partition  distribute D units over a set of devices
//	POST /v1/dynpart    model-free dynamic partitioning (paper §4.4)
//	POST /v1/balance    replay observed iteration times through the balancer
//	POST /v1/rebalance  cost-gated elastic repartitioning decision + plan
//	POST /v1/matpart    2D column-based matrix arrangement for given areas
//	POST /v1/machine    upload a machine file describing a tenant's devices
//	GET  /stats         request/cache/store/quota counters
//	GET  /healthz       liveness probe
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
)

// GEMMBlockFlops is the arithmetic cost of one computation unit (one
// 128×128 block update), kernels.GEMMBlockFlops, so service sweeps and
// CLI sweeps are directly comparable.
const GEMMBlockFlops = kernels.GEMMBlockFlops

// DefaultSweepPrecision is the statistical stopping rule the service
// benchmarks with. It is exported so clients reproducing a service result
// through the library (and the service's own tests) measure identically.
var DefaultSweepPrecision = core.Precision{
	MinReps:    3,
	MaxReps:    8,
	Confidence: 0.95,
	RelErr:     0.05,
}

// DefaultCacheSize is the per-tenant LRU bound when Config.CacheSize is 0.
const DefaultCacheSize = 64

// MaxDevices bounds the number of devices in one partition request.
const MaxDevices = 64

// DefaultTransferProbes is the initial probe count of a transferred fill.
const DefaultTransferProbes = 4

// DefaultTransferTol is the convergence tolerance of a transferred fill —
// the served accuracy bound: synthesized points agree with the
// donor-vs-interpolant consensus to within ~2%. A transferred fill's probe
// budget is a quarter of the size grid.
const DefaultTransferTol = 0.02

// Config parametrises New.
type Config struct {
	// Workers bounds the pool running sweeps, fits and solves; <= 0
	// selects GOMAXPROCS.
	Workers int
	// CacheSize is the per-tenant LRU bound in fitted models; <= 0
	// selects DefaultCacheSize.
	CacheSize int
	// StoreDir, when non-empty, enables the on-disk model store: every
	// sweep is spilled there (write-behind) and reloaded on start, so a
	// restarted server reuses its measurements instead of re-sweeping.
	// Replicas pointed at the same directory share sweeps through it.
	StoreDir string
	// QuotaSlots, when positive, bounds each tenant's concurrently
	// in-flight expensive operations (sweep fills, dynamic-partition runs)
	// at QuotaSlots × weight; excess requests are rejected with 429.
	// Zero or negative disables admission control.
	QuotaSlots int
	// QuotaWeights maps tenant name → weight for the admission quota;
	// absent tenants weigh 1.
	QuotaWeights map[string]int
	// Transfer enables cross-device model transfer (internal/transfer):
	// a cold key's fill probes a few grid sizes, warm-starts from the
	// store's nearest-fingerprint curve, and actively samples until the
	// model converges — falling back to the ordinary full sweep whenever
	// no stored donor matches. Requires StoreDir (the store is the donor
	// pool). Off by default: transferred models are bounded
	// approximations, not raw measurements.
	Transfer bool
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/measure", s.instrument(s.handleMeasure))
	mux.HandleFunc("/v1/model", s.instrument(s.handleModel))
	mux.HandleFunc("/v1/partition", s.instrument(serve(s, partitionOp)))
	mux.HandleFunc("/v1/dynpart", s.instrument(serve(s, dynpartOp)))
	mux.HandleFunc("/v1/balance", s.instrument(serve(s, balanceOp)))
	mux.HandleFunc("/v1/rebalance", s.instrument(serve(s, rebalanceOp)))
	mux.HandleFunc("/v1/matpart", s.instrument(serve(s, matpartOp)))
	mux.HandleFunc("/v1/machine", s.instrument(s.handleMachine))
	mux.HandleFunc("/stats", s.instrument(s.handleStats))
	mux.HandleFunc("/healthz", s.instrument(s.handleHealthz))
	return mux
}

// DeviceSpec names one virtual device and its measurement conditions.
type DeviceSpec struct {
	// Preset is a platform device preset name (see fupermod-bench
	// -help-devices), e.g. "netlib-blas", "fast", "gpu".
	Preset string `json:"preset"`
	// Seed seeds the device's measurement noise.
	Seed int64 `json:"seed"`
	// Noise is the relative measurement noise (0 disables it).
	Noise float64 `json:"noise"`
}

// Grid is the geometric benchmark size grid [Lo, Hi] with N sizes.
type Grid struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	N  int `json:"n"`
}

// MeasureRequest asks for the benchmark sweep of one device.
type MeasureRequest struct {
	Tenant string     `json:"tenant"`
	Device DeviceSpec `json:"device"`
	Grid   Grid       `json:"grid"`
	// Model is the model kind the sweep is cached under (and fitted to);
	// empty selects the piecewise FPM.
	Model string `json:"model,omitempty"`
}

// PointPayload is one measured point.
type PointPayload struct {
	D     int     `json:"d"`
	TimeS float64 `json:"time_s"`
	Reps  int     `json:"reps"`
	CI    float64 `json:"ci"`
}

// MeasureResponse returns the sweep's points.
type MeasureResponse struct {
	Device string         `json:"device"`
	Model  string         `json:"model"`
	Points []PointPayload `json:"points"`
}

// ModelRequest asks for a fitted model of one device.
type ModelRequest = MeasureRequest

// EvalPayload is the fitted model evaluated at one size.
type EvalPayload struct {
	D     int     `json:"d"`
	TimeS float64 `json:"time_s"`
	Speed float64 `json:"speed_ups"`
}

// ModelResponse returns the fitted model: the points it was built from and
// its time/speed functions tabulated over the request grid.
type ModelResponse struct {
	Device string         `json:"device"`
	Model  string         `json:"model"`
	Points []PointPayload `json:"points"`
	Eval   []EvalPayload  `json:"eval"`
}

// PartitionRequest asks for the distribution of D computation units over
// the given devices.
type PartitionRequest struct {
	Tenant  string       `json:"tenant"`
	Devices []DeviceSpec `json:"devices"`
	Grid    Grid         `json:"grid"`
	// Model is the model kind; empty selects the piecewise FPM.
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner; empty selects geometric.
	Algorithm string `json:"algorithm,omitempty"`
	D         int    `json:"d"`
	// Comm, when set, makes the partition communication-aware: each
	// device's balanced time includes the fitted cost of its traffic.
	Comm *CommSpec `json:"comm,omitempty"`
}

// PartPayload is one process's share.
type PartPayload struct {
	Device string  `json:"device"`
	Units  int     `json:"units"`
	TimeS  float64 `json:"time_s"`
}

// PartitionResponse returns the computed distribution. It is a pure
// function of the request — no per-request metadata — so identical
// requests receive byte-identical responses whether served from a cold
// sweep, the cache, a shared batch, or any server of a fleet.
type PartitionResponse struct {
	Algorithm string        `json:"algorithm"`
	Model     string        `json:"model"`
	D         int           `json:"d"`
	Parts     []PartPayload `json:"parts"`
	MakespanS float64       `json:"makespan_s"`
	// Imbalance is max/min over predicted part times, or -1 when it is
	// undefined (a loaded part with no predicted time).
	Imbalance float64 `json:"imbalance"`
	// Comm fingerprints the communication model the balance included
	// (kind/op/net/ranks/bytes-per-unit); empty for compute-only requests.
	Comm string `json:"comm,omitempty"`
}

// httpError carries a status code (and, for quota rejections, a
// Retry-After hint) to the error middleware.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 = no header
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// asRequestError passes a handler-originated httpError (e.g. a quota 429)
// through intact, maps a closed server's cancellation to 503 — the
// in-flight casualties of a shutdown are a service condition, not a client
// mistake — and downgrades everything else to a 400 with the given
// message.
func asRequestError(err error, format string, args ...any) error {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	if errors.Is(err, context.Canceled) {
		return &httpError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf(format, args...)}
	}
	return badRequest(format, args...)
}

// instrument wraps a handler with request counting and latency tracking.
func (s *Server) instrument(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		start := time.Now()
		status := http.StatusOK
		if err := h(w, r); err != nil {
			var he *httpError
			if errors.As(err, &he) {
				status = he.status
				if he.retryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
				}
			} else {
				status = http.StatusInternalServerError
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		}
		s.stats.observe(time.Since(start), status)
	}
}

// decode parses a JSON POST body into v with a sane size bound, then
// canonicalises in place the tenant it names (tenant points into v).
func decode(w http.ResponseWriter, r *http.Request, v any, tenant *string) error {
	if r.Method != http.MethodPost {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"}
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := DecodeJSON(r.Body, v); err != nil {
		return badRequest("malformed request: %v", err)
	}
	*tenant = TenantOf(*tenant)
	return nil
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return EncodeJSON(w, v)
}

// TenantOf canonicalises a request's tenant name, mapping the empty tenant
// to a default so single-tenant clients need not name themselves. It is
// exported because routing layers in front of the service (cmd/
// fupermod-route) must canonicalise identically, or the empty tenant and
// "default" would land on different backends.
func TenantOf(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// keyFor canonicalises the device reference for the tenant (resolving
// bare "machine:<rank>" refs against the tenant's current upload) and
// builds the cache key.
func (s *Server) keyFor(tenant string, dev DeviceSpec, grid Grid, kind string) (ModelKey, error) {
	canon, err := s.canonDevice(tenant, dev.Preset)
	if err != nil {
		return ModelKey{}, badRequest("%v", err)
	}
	dev.Preset = canon
	return keyOf(dev, grid, kind)
}

// keyOf resolves a device spec + grid + model kind into a cache key.
func keyOf(dev DeviceSpec, grid Grid, kind string) (ModelKey, error) {
	if kind == "" {
		kind = model.KindPiecewise
	}
	k := ModelKey{
		Device: dev.Preset,
		Seed:   dev.Seed,
		Noise:  dev.Noise,
		Lo:     grid.Lo,
		Hi:     grid.Hi,
		N:      grid.N,
		Model:  kind,
	}
	if err := k.validate(); err != nil {
		return ModelKey{}, badRequest("%v", err)
	}
	return k, nil
}

func pointPayloads(pts []core.Point) []PointPayload {
	out := make([]PointPayload, len(pts))
	for i, p := range pts {
		out[i] = PointPayload{D: p.D, TimeS: p.Time, Reps: p.Reps, CI: p.CI}
	}
	return out
}

// resolveModel decodes a measure or model request and resolves its fitted
// model through the tenant cache. The model's points are the sweep's: every
// model kind keeps its points sorted by size, one per size, and a sweep's
// sizes are strictly increasing.
func (s *Server) resolveModel(w http.ResponseWriter, r *http.Request) (ModelKey, core.Model, error) {
	var req MeasureRequest
	if err := decode(w, r, &req, &req.Tenant); err != nil {
		return ModelKey{}, nil, err
	}
	key, err := s.keyFor(req.Tenant, req.Device, req.Grid, req.Model)
	if err != nil {
		return ModelKey{}, nil, err
	}
	m, err := s.getModel(req.Tenant, key)
	if err != nil {
		return ModelKey{}, nil, asRequestError(err, "%v", err)
	}
	return key, m, nil
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) error {
	key, m, err := s.resolveModel(w, r)
	if err != nil {
		return err
	}
	return writeJSON(w, MeasureResponse{
		Device: key.Device,
		Model:  key.Model,
		Points: pointPayloads(m.Points()),
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) error {
	key, m, err := s.resolveModel(w, r)
	if err != nil {
		return err
	}
	var eval []EvalPayload
	for _, d := range core.LogSizes(key.Lo, key.Hi, key.N) {
		tm, err := m.Time(float64(d))
		if err != nil {
			return fmt.Errorf("evaluating model at %d: %w", d, err)
		}
		sp, err := core.ModelSpeed(m, float64(d))
		if err != nil {
			return fmt.Errorf("evaluating speed at %d: %w", d, err)
		}
		eval = append(eval, EvalPayload{D: d, TimeS: tm, Speed: sp})
	}
	return writeJSON(w, ModelResponse{
		Device: key.Device,
		Model:  key.Model,
		Points: pointPayloads(m.Points()),
		Eval:   eval,
	})
}

var partitionOp = op[PartitionRequest]{
	tenant:  func(r *PartitionRequest) *string { return &r.Tenant },
	runs:    func(s *serverStats) *atomic.Int64 { return &s.BatchSolves },
	prepare: (*Server).preparePartition,
}

// preparePartition resolves every device's fitted model through the
// tenant cache and keys the batch on the resolved model keys (BatchKey).
// The resolution is sequential within one request — each fill occupies a
// pool slot only while sweeping, and cross-request parallelism keeps the
// pool busy — which also rules out pool starvation from nested
// acquisition.
func (s *Server) preparePartition(req *PartitionRequest) (func() (any, error), string, error) {
	if err := checkCount("device", len(req.Devices)); err != nil {
		return nil, "", err
	}
	if req.D <= 0 {
		return nil, "", badRequest("problem size d must be positive, got %d", req.D)
	}
	algo, err := normAlgorithm(&req.Algorithm)
	if err != nil {
		return nil, "", err
	}
	keys := make([]ModelKey, len(req.Devices))
	models := make([]core.Model, len(req.Devices))
	for i, dev := range req.Devices {
		key, err := s.keyFor(req.Tenant, dev, req.Grid, req.Model)
		if err != nil {
			return nil, "", err
		}
		m, err := s.getModel(req.Tenant, key)
		if err != nil {
			return nil, "", asRequestError(err, "device %d (%s): %v", i, dev.Preset, err)
		}
		keys[i], models[i] = key, m
	}
	models, commTag, err := s.commWrap(req.Comm, models)
	if err != nil {
		return nil, "", badRequest("comm: %v", err)
	}
	solve := func() (any, error) {
		dist, err := algo.Partition(models, req.D)
		if err != nil {
			return nil, err
		}
		parts := make([]PartPayload, len(dist.Parts))
		for i, p := range dist.Parts {
			parts[i] = PartPayload{Device: keys[i].Device, Units: p.D, TimeS: p.Time}
		}
		imb := dist.Imbalance()
		if math.IsInf(imb, 0) || math.IsNaN(imb) {
			imb = -1
		}
		return &PartitionResponse{
			Algorithm: req.Algorithm,
			Model:     keys[0].Model,
			D:         req.D,
			Parts:     parts,
			MakespanS: dist.MaxTime(),
			Imbalance: imb,
			Comm:      commTag,
		}, nil
	}
	return solve, BatchKey("part", req.Tenant, keys, req.Algorithm, req.D, commTag), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"}
	}
	return writeJSON(w, map[string]string{"status": "ok"})
}
