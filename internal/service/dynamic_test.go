package service

import (
	"encoding/json"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
)

// directDynpart replays a dynpart request through the library exactly as
// the service must run it.
func directDynpart(t *testing.T, req DynpartRequest) *dynamic.Result {
	t.Helper()
	kind := req.Model
	if kind == "" {
		kind = model.KindPiecewise
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "geometric"
	}
	algo, err := partition.ByName(algorithm)
	if err != nil {
		t.Fatal(err)
	}
	eps := req.Eps
	if eps == 0 {
		eps = DefaultDynEps
	}
	kernelSet := make([]core.Kernel, len(req.Devices))
	for i, spec := range req.Devices {
		dev, err := platform.Preset(spec.Preset)
		if err != nil {
			t.Fatal(err)
		}
		meter := platform.NewMeter(dev, platform.RelNoise(spec.Noise), spec.Seed)
		k, err := kernels.NewVirtual(dev.Name(), meter, GEMMBlockFlops)
		if err != nil {
			t.Fatal(err)
		}
		kernelSet[i] = k
	}
	res, err := dynamic.PartitionDynamic(kernelSet, req.D, dynamic.Config{
		Algorithm: algo,
		NewModel:  func() core.Model { m, _ := model.New(kind); return m },
		Precision: DefaultSweepPrecision,
		Eps:       eps,
		MaxIters:  req.MaxIters,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDynpartMatchesDirectPath: the endpoint is a faithful transport for
// dynamic.PartitionDynamic — same distribution, same trace, same
// convergence verdict as the direct library run.
func TestDynpartMatchesDirectPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := DynpartRequest{
		Tenant:  "a",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}, {Preset: "gpu", Seed: 3}},
		D:       12000,
	}
	want := directDynpart(t, req)

	status, body := postJSON(t, ts.URL+"/v1/dynpart", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp DynpartResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Converged != want.Converged {
		t.Errorf("converged = %v, want %v", resp.Converged, want.Converged)
	}
	if len(resp.Steps) != len(want.Steps) {
		t.Fatalf("%d steps, want %d", len(resp.Steps), len(want.Steps))
	}
	for i, p := range want.Dist.Parts {
		if resp.Parts[i].Units != p.D {
			t.Errorf("part %d: %d units, want %d", i, resp.Parts[i].Units, p.D)
		}
	}
	for i, st := range want.Steps {
		for j, p := range st.Dist.Parts {
			if resp.Steps[i].Units[j] != p.D {
				t.Errorf("step %d part %d: %d units, want %d", i, j, resp.Steps[i].Units[j], p.D)
			}
		}
		if resp.Steps[i].ModelPoints != st.ModelPoints {
			t.Errorf("step %d model points: %d, want %d", i, resp.Steps[i].ModelPoints, st.ModelPoints)
		}
	}
	if resp.BenchmarkS != want.BenchmarkSeconds {
		t.Errorf("benchmark seconds %g, want %g", resp.BenchmarkS, want.BenchmarkSeconds)
	}
}

// TestDynpartDeterministic: repeated identical runs give byte-identical
// responses (the seeded meters restart per run), and each executed run is
// counted.
func TestDynpartDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := DynpartRequest{
		Devices: []DeviceSpec{{Preset: "fast", Seed: 5, Noise: 0.05}, {Preset: "slow", Seed: 6, Noise: 0.05}},
		D:       8000,
	}
	status, first := postJSON(t, ts.URL+"/v1/dynpart", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, first)
	}
	status, second := postJSON(t, ts.URL+"/v1/dynpart", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, second)
	}
	if string(first) != string(second) {
		t.Errorf("dynpart is not deterministic:\n%s\n%s", first, second)
	}
	if snap := getStats(t, ts.URL); snap.DynpartRuns == 0 {
		t.Error("dynpart_runs not counted")
	}
}

func TestDynpartValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []DynpartRequest{
		{}, // no devices
		{Devices: []DeviceSpec{{Preset: "fast"}}, D: 0},                // d < n
		{Devices: []DeviceSpec{{Preset: "fast"}}, D: 10, Eps: -1},      // bad eps
		{Devices: []DeviceSpec{{Preset: "nope"}}, D: 10},               // unknown preset
		{Devices: []DeviceSpec{{Preset: "fast"}}, D: 10, Model: "x"},   // unknown model
		{Devices: []DeviceSpec{{Preset: "fast"}}, D: 10, MaxIters: -1}, // bad iters
	}
	for i, req := range bad {
		status, body := postJSON(t, ts.URL+"/v1/dynpart", req)
		if status != 400 {
			t.Errorf("case %d: status %d, want 400: %s", i, status, body)
		}
	}
}

// directBalance replays a balance request through the library.
func directBalance(t *testing.T, req BalanceRequest) [][]int {
	t.Helper()
	kind := req.Model
	if kind == "" {
		kind = model.KindPiecewise
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "geometric"
	}
	algo, err := partition.ByName(algorithm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dynamic.NewBalancer(dynamic.Config{
		Algorithm: algo,
		NewModel:  func() core.Model { m, _ := model.New(kind); return m },
	}, req.D, req.N, req.MinGain)
	if err != nil {
		t.Fatal(err)
	}
	var trace [][]int
	for _, times := range req.Iterations {
		if _, err := b.Observe(times); err != nil {
			t.Fatal(err)
		}
		units := make([]int, req.N)
		for j, p := range b.Dist().Parts {
			units[j] = p.D
		}
		trace = append(trace, units)
	}
	return trace
}

// TestBalanceMatchesDirectPath: the stateless replay endpoint proposes
// exactly what a locally driven Balancer proposes for the same history.
func TestBalanceMatchesDirectPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BalanceRequest{
		Tenant: "jacobi",
		N:      3,
		D:      9000,
		Iterations: [][]float64{
			{1.0, 2.0, 4.0},
			{1.1, 1.9, 3.9},
			{1.3, 1.4, 1.5},
		},
	}
	want := directBalance(t, req)

	status, body := postJSON(t, ts.URL+"/v1/balance", req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BalanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Iterations) != len(want) {
		t.Fatalf("%d iterations, want %d", len(resp.Iterations), len(want))
	}
	for i, units := range want {
		for j, u := range units {
			if resp.Iterations[i].Units[j] != u {
				t.Errorf("iteration %d process %d: %d units, want %d", i, j, resp.Iterations[i].Units[j], u)
			}
		}
	}
	for j, u := range want[len(want)-1] {
		if resp.Units[j] != u {
			t.Errorf("final units[%d] = %d, want %d", j, resp.Units[j], u)
		}
	}

	// Stateless: replaying the same history again gives the same bytes.
	status, again := postJSON(t, ts.URL+"/v1/balance", req)
	if status != 200 {
		t.Fatalf("replay status %d", status)
	}
	if string(body) != string(again) {
		t.Errorf("balance replay is not stateless:\n%s\n%s", body, again)
	}
	if snap := getStats(t, ts.URL); snap.BalanceRuns == 0 {
		t.Error("balance_runs not counted")
	}
}

func TestBalanceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []BalanceRequest{
		{N: 0, D: 10, Iterations: [][]float64{{1}}},
		{N: 2, D: 1, Iterations: [][]float64{{1, 1}}},
		{N: 2, D: 10},
		{N: 2, D: 10, Iterations: [][]float64{{1}}},     // wrong width
		{N: 2, D: 10, Iterations: [][]float64{{1, -2}}}, // negative time
		{N: 2, D: 10, Iterations: [][]float64{{1, 1}}, MinGain: -0.1},
		{N: 2, D: 10, Iterations: [][]float64{{1, 1}}, Model: "x"},
		{N: 2, D: 10, Iterations: [][]float64{{1, 1}}, Algorithm: "x"},
	}
	for i, req := range bad {
		status, body := postJSON(t, ts.URL+"/v1/balance", req)
		if status != 400 {
			t.Errorf("case %d: status %d, want 400: %s", i, status, body)
		}
	}
}
