package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"fupermod/internal/commmodel"
	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/pool"
	"fupermod/internal/rebalance"
)

// rebalanceReq is the canonical drift'd request the tests share: three
// processes, the third suddenly 4x slower in the recent observations,
// plenty of rounds ahead — a clear migrate.
func rebalanceReq(tenant string) RebalanceRequest {
	return RebalanceRequest{
		Tenant: tenant,
		N:      3,
		D:      3000,
		Units:  []int{1000, 1000, 1000},
		Iterations: [][]float64{
			{1.0, 1.0, 1.0},
			{1.0, 1.0, 4.0},
			{1.0, 1.0, 4.0},
		},
		Rounds:    50,
		UnitBytes: 64,
		Comm:      &CommSpec{Net: "gigabit", Model: "hockney"},
	}
}

// directRebalanceBytes computes the byte-exact /v1/rebalance response
// through the library only: calibrate the network, replay the
// observations into partial models, propose, predict, decide.
func directRebalanceBytes(t *testing.T, req RebalanceRequest) []byte {
	t.Helper()
	kind := req.Model
	if kind == "" {
		kind = model.KindAdaptive
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "geometric"
	}
	algo, err := partition.ByName(algorithm)
	if err != nil {
		t.Fatal(err)
	}

	// The calibrated link model, straight from the commmodel library: the
	// same spec normalisation the service applies.
	spec, commKind, err := req.Comm.normalize(req.N)
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(2)
	cal, err := commmodel.Calibrate(context.Background(), p, spec, nil, commmodel.DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	link, err := cal.Fit(commKind, false)
	if err != nil {
		t.Fatal(err)
	}
	commTag := fmt.Sprintf("%s/%s/%s/%d/%g", commKind, spec.Op, spec.NetName, spec.Ranks, req.Comm.BytesPerUnit)

	old := &core.Dist{D: req.D, Parts: make([]core.Part, req.N)}
	for i, u := range req.Units {
		old.Parts[i].D = u
	}
	models := make([]core.Model, req.N)
	for i := range models {
		if models[i], err = model.New(kind); err != nil {
			t.Fatal(err)
		}
	}
	for _, times := range req.Iterations {
		for i, tt := range times {
			if req.Units[i] <= 0 {
				continue
			}
			if err := models[i].Update(core.Point{D: req.Units[i], Time: tt, Reps: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	proposal, err := algo.Partition(models, req.D)
	if err != nil {
		t.Fatal(err)
	}
	oldPred, err := dynamic.PredictTimes(models, old)
	if err != nil {
		t.Fatal(err)
	}
	newPred, err := dynamic.PredictTimes(models, proposal)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := rebalance.Decide(oldPred, newPred, rebalance.Uniform(link), req.UnitBytes, req.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	newUnits := make([]int, req.N)
	for i, part := range proposal.Parts {
		newUnits[i] = part.D
	}
	moves := make([]MovePayload, len(dec.Plan.Moves))
	for i, m := range dec.Plan.Moves {
		moves[i] = MovePayload{From: m.From, To: m.To, Units: m.Units, Bytes: float64(m.Units) * dec.Plan.UnitBytes}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(RebalanceResponse{
		Algorithm:     algorithm,
		Model:         kind,
		D:             req.D,
		N:             req.N,
		OldUnits:      req.Units,
		NewUnits:      newUnits,
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
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRebalanceMatchesDirectPath: the endpoint's bytes equal the pure
// library sequence, the drift'd corpus yields a migrate verdict with a
// sane plan, and the replay is stateless.
func TestRebalanceMatchesDirectPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := rebalanceReq("elastic")
	want := directRebalanceBytes(t, req)

	status, body := postJSON(t, ts.URL+"/v1/rebalance", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("endpoint differs from the direct library path\ngot:  %s\nwant: %s", body, want)
	}
	var resp RebalanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// The third process slowed 4x with 47 rounds left on a gigabit link:
	// migrating must win, shifting units off process 2.
	if !resp.Migrate {
		t.Errorf("drift'd corpus decided keep (gain %g s)", resp.GainS)
	}
	if resp.NewUnits[2] >= resp.OldUnits[2] {
		t.Errorf("proposal did not shed load from the slowed process: %v -> %v", resp.OldUnits, resp.NewUnits)
	}
	if resp.MovedUnits <= 0 || len(resp.Moves) == 0 {
		t.Errorf("migrate verdict with an empty plan: moved=%d moves=%v", resp.MovedUnits, resp.Moves)
	}
	if resp.KeepTotalS <= resp.MigrateTotalS {
		t.Errorf("migrate verdict but keep %g <= migrate %g", resp.KeepTotalS, resp.MigrateTotalS)
	}
	sendSum, recvSum := 0.0, 0.0
	for i := range resp.SendBytes {
		sendSum += resp.SendBytes[i]
		recvSum += resp.RecvBytes[i]
	}
	if sendSum != recvSum || sendSum != float64(resp.MovedUnits)*req.UnitBytes {
		t.Errorf("plan bytes do not balance: send %g, recv %g, moved %d units × %g",
			sendSum, recvSum, resp.MovedUnits, req.UnitBytes)
	}

	status, again := postJSON(t, ts.URL+"/v1/rebalance", req)
	if status != 200 {
		t.Fatalf("replay status %d", status)
	}
	if !bytes.Equal(body, again) {
		t.Errorf("rebalance replay is not stateless:\n%s\n%s", body, again)
	}
	if snap := getStats(t, ts.URL); snap.RebalanceRuns == 0 {
		t.Error("rebalance_runs not counted")
	}
}

// TestRebalanceKeepsWhenMigrationIsRuinous: tiny remaining horizon + huge
// per-unit payload → the same drift produces a keep.
func TestRebalanceKeepsWhenMigrationIsRuinous(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := rebalanceReq("frugal")
	req.Rounds = 1
	req.UnitBytes = 1 << 26 // 64 MiB per unit: moving ~hundreds of units costs minutes on gigabit
	status, body := postJSON(t, ts.URL+"/v1/rebalance", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp RebalanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Migrate {
		t.Errorf("ruinous migration accepted: migration %g s for gain over %d round(s)", resp.MigrationS, resp.Rounds)
	}
	// The plan is still reported — the client sees what it declined.
	if resp.MovedUnits == 0 {
		t.Error("keep verdict reported an empty plan; the priced plan should still be visible")
	}
}

func TestRebalanceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ok := rebalanceReq("")
	mutate := func(f func(*RebalanceRequest)) RebalanceRequest {
		r := ok
		r.Units = append([]int(nil), ok.Units...)
		r.Iterations = make([][]float64, len(ok.Iterations))
		for i, it := range ok.Iterations {
			r.Iterations[i] = append([]float64(nil), it...)
		}
		f(&r)
		return r
	}
	bad := []RebalanceRequest{
		mutate(func(r *RebalanceRequest) { r.N = 0 }),
		mutate(func(r *RebalanceRequest) { r.N = MaxDevices + 1 }),
		mutate(func(r *RebalanceRequest) { r.D = 2 }),
		mutate(func(r *RebalanceRequest) { r.Units = []int{3000} }),                  // wrong length
		mutate(func(r *RebalanceRequest) { r.Units = []int{3000, 1000, -1000} }),     // negative
		mutate(func(r *RebalanceRequest) { r.Units = []int{1000, 1000, 900} }),       // wrong sum
		mutate(func(r *RebalanceRequest) { r.Iterations = nil }),                     // no observations
		mutate(func(r *RebalanceRequest) { r.Iterations = [][]float64{{1, 1}} }),     // wrong width
		mutate(func(r *RebalanceRequest) { r.Iterations = [][]float64{{1, 1, -1}} }), // negative time
		mutate(func(r *RebalanceRequest) { r.Iterations = [][]float64{{1, 1, 0}} }),  // zero time, loaded
		mutate(func(r *RebalanceRequest) { r.Rounds = 0 }),
		mutate(func(r *RebalanceRequest) { r.UnitBytes = 0 }),
		mutate(func(r *RebalanceRequest) { r.UnitBytes = -8 }),
		mutate(func(r *RebalanceRequest) { r.Comm = nil }),
		mutate(func(r *RebalanceRequest) { r.Comm = &CommSpec{Net: "no-such-net"} }),
		mutate(func(r *RebalanceRequest) { r.Model = "no-such-model" }),
		mutate(func(r *RebalanceRequest) { r.Algorithm = "no-such-algo" }),
	}
	for i, req := range bad {
		status, body := postJSON(t, ts.URL+"/v1/rebalance", req)
		if status != 400 {
			t.Errorf("case %d: status %d, want 400: %s", i, status, body)
		}
	}
}

// TestRebalanceBatches: identical decisions in flight together share one
// computation — the endpoint rides the op-prefixed batcher like every
// other solve.
func TestRebalanceBatches(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	req := rebalanceReq("batchers")

	// Warm the comm-calibration cache so the batched requests reach their
	// batch behind the plugged pool instead of the calibration.
	if status, body := postJSON(t, ts.URL+"/v1/rebalance", req); status != 200 {
		t.Fatalf("warmup status %d: %s", status, body)
	}
	before := svc.snapshot().RebalanceRuns
	unplug := plugPool(t, svc)

	const waves = 12
	results := make([][]byte, waves)
	var wg sync.WaitGroup
	for i := 0; i < waves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/rebalance", req)
			if status == 200 {
				results[i] = body
			}
		}(i)
	}
	waitUntil(t, "the requests to join one batch", func() bool { return svc.stats.BatchJoined.Load() == waves-1 })
	unplug()
	wg.Wait()
	for i, body := range results {
		if body == nil {
			t.Fatalf("request %d failed", i)
		}
		if !bytes.Equal(body, results[0]) {
			t.Errorf("request %d got different bytes", i)
		}
	}
	runs := svc.snapshot().RebalanceRuns - before
	if runs >= waves {
		t.Errorf("%d identical requests ran %d rebalance computations; batching is not happening", waves, runs)
	}
}
