package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestPartitionWithComm: a comm-aware partition request calibrates once,
// shifts the distribution relative to the compute-only answer, reports
// its comm fingerprint, and serves repeat requests from the calibration
// cache.
func TestPartitionWithComm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PartitionRequest{
		Tenant:  "comm",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
		D:       6000,
		Comm: &CommSpec{
			Net:          "rendezvous",
			Model:        "loggp",
			BytesPerUnit: 4096,
		},
	}
	status, body := postJSON(t, ts.URL+"/v1/partition", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var aware PartitionResponse
	if err := json.Unmarshal(body, &aware); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(aware.Comm, "loggp/p2p/rendezvous/") {
		t.Errorf("comm fingerprint %q", aware.Comm)
	}

	blindReq := req
	blindReq.Comm = nil
	status, body = postJSON(t, ts.URL+"/v1/partition", blindReq)
	if status != http.StatusOK {
		t.Fatalf("compute-only: status %d: %s", status, body)
	}
	var blind PartitionResponse
	if err := json.Unmarshal(body, &blind); err != nil {
		t.Fatal(err)
	}
	if blind.Comm != "" {
		t.Errorf("compute-only response has comm fingerprint %q", blind.Comm)
	}
	// Pricing traffic must change the predicted times (comm cost is in the
	// balance now), and with heavily comm-dominated shares it shifts units
	// toward balance of total time.
	if aware.MakespanS <= blind.MakespanS {
		t.Errorf("comm-aware predicted makespan %g should exceed compute-only %g (it includes traffic)",
			aware.MakespanS, blind.MakespanS)
	}

	// Repeat comm requests are served from the calibration cache.
	status, body2 := postJSON(t, ts.URL+"/v1/partition", req)
	if status != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", status, body2)
	}
	snap := getStats(t, ts.URL)
	if snap.CommCalibrations != 1 {
		t.Errorf("comm calibrations = %d, want 1 (second request must hit the cache)", snap.CommCalibrations)
	}
}

// TestPartitionWithCommConcurrentSingleFlight: concurrent first comm
// requests trigger exactly one calibration.
func TestPartitionWithCommConcurrentSingleFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PartitionRequest{
		Tenant:  "commsf",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
		D:       4000,
		Comm:    &CommSpec{Net: "gigabit", Op: "halo", Model: "hockney", BytesPerUnit: 512},
	}
	// Prime the compute models so the concurrent phase only races on the
	// comm calibration.
	for _, dev := range req.Devices {
		status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Tenant: req.Tenant, Device: dev, Grid: req.Grid})
		if status != http.StatusOK {
			t.Fatalf("prime: status %d: %s", status, body)
		}
	}
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/partition", req)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
		}()
	}
	wg.Wait()
	snap := getStats(t, ts.URL)
	if snap.CommCalibrations != 1 {
		t.Errorf("comm calibrations = %d, want 1 under %d concurrent requests", snap.CommCalibrations, clients)
	}
}

// TestPartitionCommValidation: malformed comm specs are rejected with 400.
func TestPartitionCommValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := PartitionRequest{
		Tenant:  "commv",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}},
		Grid:    testGrid,
		D:       100,
	}
	cases := []CommSpec{
		{Net: "token-ring", BytesPerUnit: 8},          // unknown net
		{Net: "gigabit", Op: "nope", BytesPerUnit: 8}, // unknown op
		{Net: "gigabit", Model: "m5", BytesPerUnit: 8},
		{Net: "gigabit", BytesPerUnit: -1},
	}
	for _, c := range cases {
		req := base
		c := c
		req.Comm = &c
		status, body := postJSON(t, ts.URL+"/v1/partition", req)
		if status != http.StatusBadRequest {
			t.Errorf("comm spec %+v: status %d (%s), want 400", c, status, body)
		}
	}
	// Zero bytes per unit is valid and equals the compute-only answer.
	req := base
	req.Comm = &CommSpec{Net: "gigabit", BytesPerUnit: 0}
	status, body := postJSON(t, ts.URL+"/v1/partition", req)
	if status != http.StatusOK {
		t.Errorf("zero bytes_per_unit: status %d: %s", status, body)
	}
}

// TestBatchKeyIncludesComm: identical requests that differ only in the
// comm spec must not share a batch — the two concurrent requests below
// would otherwise receive the same distribution.
func TestBatchKeyIncludesComm(t *testing.T) {
	a := BatchKey("part", "t", nil, "geometric", 100, "")
	b := BatchKey("part", "t", nil, "geometric", 100, "loggp/p2p/gigabit/2/512")
	c := BatchKey("part", "t", nil, "geometric", 100, "loggp/p2p/gigabit/2/1024")
	if a == b || b == c {
		t.Errorf("batch keys collide across comm specs: %q %q %q", a, b, c)
	}
}
