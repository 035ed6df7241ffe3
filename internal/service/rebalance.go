package service

import (
	"fmt"
	"sync/atomic"

	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/model"
	"fupermod/internal/rebalance"
)

// /v1/rebalance is the elastic-repartitioning decision as a service: the
// client has been running its current distribution for a while, the
// platform drifted underneath it, and it asks whether moving to the
// distribution the drift'd measurements suggest is worth the bytes. Like
// /v1/balance the computation is a stateless replay — the observation
// history travels in the request — so identical requests get identical
// decisions on any server of a fleet, and the whole run batches under
// the op-prefixed "reb|" key.

// RebalanceRequest asks for a cost-gated repartitioning decision. The
// observed iterations must all have been measured under Units, the
// distribution currently in use.
type RebalanceRequest struct {
	Tenant string `json:"tenant"`
	// N is the process count, D the total problem size.
	N int `json:"n"`
	D int `json:"d"`
	// Units is the current (old) distribution, one entry per process,
	// summing to D.
	Units []int `json:"units"`
	// Iterations holds the observed per-process compute times measured
	// under Units, oldest first, each of length N. The drift the client
	// wants priced is in here.
	Iterations [][]float64 `json:"iterations"`
	// Model is the partial-model kind fed with the observations; empty
	// selects the adaptive CPM (the drift-tracking choice).
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner proposing the new distribution; empty
	// selects geometric.
	Algorithm string `json:"algorithm,omitempty"`
	// Rounds is the expected number of remaining computation rounds the
	// migration cost is amortized over.
	Rounds int `json:"rounds"`
	// UnitBytes is the wire size of one computation unit's data — what a
	// reassigned unit costs to ship.
	UnitBytes float64 `json:"unit_bytes"`
	// Comm selects the calibrated network model pricing the migration
	// links (net/op/model; its bytes_per_unit plays no role here — the
	// migration payload is UnitBytes).
	Comm *CommSpec `json:"comm"`
}

// MovePayload is one priced transfer of the migration plan.
type MovePayload struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Units int     `json:"units"`
	Bytes float64 `json:"bytes"`
}

// RebalanceResponse returns the decision, the plan, and every priced cost
// that produced it. It is a pure function of the request.
type RebalanceResponse struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	D         int    `json:"d"`
	N         int    `json:"n"`
	// OldUnits echoes the request's distribution; NewUnits is the
	// partitioner's proposal from the drift'd observations.
	OldUnits []int `json:"old_units"`
	NewUnits []int `json:"new_units"`
	// Migrate is the verdict; the remaining fields are the arithmetic
	// behind it (all times in seconds).
	Migrate       bool    `json:"migrate"`
	Rounds        int     `json:"rounds"`
	KeepPerRoundS float64 `json:"keep_per_round_s"`
	NewPerRoundS  float64 `json:"new_per_round_s"`
	MigrationS    float64 `json:"migration_s"`
	KeepTotalS    float64 `json:"keep_total_s"`
	MigrateTotalS float64 `json:"migrate_total_s"`
	GainS         float64 `json:"gain_s"`
	// The byte-movement plan: per-rank volumes and the move list.
	MovedUnits int           `json:"moved_units"`
	Moves      []MovePayload `json:"moves,omitempty"`
	SendBytes  []float64     `json:"send_bytes"`
	RecvBytes  []float64     `json:"recv_bytes"`
	// Comm fingerprints the calibrated link model that priced the plan.
	Comm string `json:"comm"`
}

var rebalanceOp = op[RebalanceRequest]{
	name:    "reb",
	tenant:  func(r *RebalanceRequest) *string { return &r.Tenant },
	runs:    func(s *serverStats) *atomic.Int64 { return &s.RebalanceRuns },
	prepare: (*Server).prepareRebalance,
}

// prepareRebalance validates a decision request and resolves its link
// model through the server's calibration cache. The solve is pure
// computation: model updates, one solver call, the plan sweep.
func (s *Server) prepareRebalance(req *RebalanceRequest) (func() (any, error), string, error) {
	if err := checkCount("process", req.N); err != nil {
		return nil, "", err
	}
	if req.D < req.N {
		return nil, "", badRequest("problem size d=%d smaller than process count %d", req.D, req.N)
	}
	if len(req.Units) != req.N {
		return nil, "", badRequest("units has %d entries for %d processes", len(req.Units), req.N)
	}
	sum := 0
	for i, u := range req.Units {
		if u < 0 {
			return nil, "", badRequest("units[%d] = %d is negative", i, u)
		}
		sum += u
	}
	if sum != req.D {
		return nil, "", badRequest("units sum to %d, want d=%d", sum, req.D)
	}
	if err := checkIterations(req.Iterations, req.N, req.Units); err != nil {
		return nil, "", err
	}
	if req.Rounds <= 0 {
		return nil, "", badRequest("rounds must be positive, got %d", req.Rounds)
	}
	if req.UnitBytes <= 0 || !nonNegative(req.UnitBytes) {
		return nil, "", badRequest("unit_bytes %g must be finite and positive", req.UnitBytes)
	}
	if req.Comm == nil {
		return nil, "", badRequest("a comm spec is required: the decision prices bytes on a network")
	}
	if err := normModel(&req.Model, model.KindAdaptive); err != nil {
		return nil, "", err
	}
	algo, err := normAlgorithm(&req.Algorithm)
	if err != nil {
		return nil, "", err
	}
	link, commTag, err := s.commModel(req.Comm, req.N)
	if err != nil {
		return nil, "", asRequestError(err, "comm: %v", err)
	}
	return func() (any, error) { return solveRebalance(req, algo, link, commTag) }, "", nil
}

// solveRebalance is the pure library path of the endpoint: replay the
// observations into partial models, propose, plan, price, decide.
func solveRebalance(req *RebalanceRequest, algo core.Partitioner, link rebalance.CommCost, commTag string) (*RebalanceResponse, error) {
	old := &core.Dist{D: req.D, Parts: make([]core.Part, req.N)}
	for i, u := range req.Units {
		old.Parts[i].D = u
	}
	models := make([]core.Model, req.N)
	for i := range models {
		models[i], _ = model.New(req.Model) // prepareRebalance checked the kind
	}
	for it, times := range req.Iterations {
		for i, t := range times {
			if req.Units[i] <= 0 {
				continue // an unloaded process measured nothing
			}
			if err := models[i].Update(core.Point{D: req.Units[i], Time: t, Reps: 1}); err != nil {
				return nil, fmt.Errorf("iteration %d: updating model %d: %w", it, i, err)
			}
		}
	}
	proposal, err := algo.Partition(models, req.D)
	if err != nil {
		return nil, fmt.Errorf("proposing: %w", err)
	}
	oldPred, err := dynamic.PredictTimes(models, old)
	if err != nil {
		return nil, fmt.Errorf("predicting current makespan: %w", err)
	}
	newPred, err := dynamic.PredictTimes(models, proposal)
	if err != nil {
		return nil, fmt.Errorf("predicting proposed makespan: %w", err)
	}
	dec, err := rebalance.Decide(oldPred, newPred, rebalance.Uniform(link), req.UnitBytes, req.Rounds)
	if err != nil {
		return nil, err
	}
	moves := make([]MovePayload, len(dec.Plan.Moves))
	for i, m := range dec.Plan.Moves {
		moves[i] = MovePayload{From: m.From, To: m.To, Units: m.Units, Bytes: float64(m.Units) * dec.Plan.UnitBytes}
	}
	return &RebalanceResponse{
		Algorithm:     req.Algorithm,
		Model:         req.Model,
		D:             req.D,
		N:             req.N,
		OldUnits:      append([]int(nil), req.Units...),
		NewUnits:      proposal.Sizes(),
		Migrate:       dec.Migrate,
		Rounds:        dec.Rounds,
		KeepPerRoundS: dec.KeepPerRound,
		NewPerRoundS:  dec.NewPerRound,
		MigrationS:    dec.MigrationTime,
		KeepTotalS:    dec.KeepTotal,
		MigrateTotalS: dec.MigrateTotal,
		GainS:         dec.Gain,
		MovedUnits:    dec.Plan.MovedUnits,
		Moves:         moves,
		SendBytes:     dec.Plan.SendBytes(),
		RecvBytes:     dec.Plan.RecvBytes(),
		Comm:          commTag,
	}, nil
}
