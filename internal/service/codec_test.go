package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func codecRequest() PartitionRequest {
	return PartitionRequest{
		Tenant: "tenant-a",
		Devices: []DeviceSpec{
			{Preset: "netlib-blas", Seed: 1, Noise: 0.02},
			{Preset: "fast", Seed: 2, Noise: 0},
		},
		Grid:      Grid{Lo: 16, Hi: 5000, N: 20},
		Model:     "piecewise",
		Algorithm: "geometric",
		D:         10000,
	}
}

// TestCodecConcurrent round-trips from many goroutines at once (tier 2
// runs this under -race): concurrent requests never see each other's
// bytes.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			req := codecRequest()
			req.D = 1000 + worker // distinct payload per goroutine
			for i := 0; i < 200; i++ {
				var buf bytes.Buffer
				if err := EncodeJSON(&buf, req); err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				var back PartitionRequest
				if err := DecodeJSON(&buf, &back); err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				if !reflect.DeepEqual(back, req) {
					t.Errorf("worker %d: round trip changed the request: %+v != %+v", worker, back, req)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPostRefusesTrailingData: every POST endpoint reads one JSON value per
// body. Anything but whitespace after it — garbage, a second value, a
// stray brace — is a 400 with the error envelope, since fupermod-route,
// which reads the tenant with json.Unmarshal, cannot route such a body to
// its tenant's backend. A trailing newline is whitespace.
func TestPostRefusesTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dev := DeviceSpec{Preset: "fast", Seed: 1}
	endpoints := []struct {
		path string
		req  any
	}{
		{"/v1/measure", MeasureRequest{Tenant: "t1", Device: dev, Grid: testGrid}},
		{"/v1/model", ModelRequest{Tenant: "t1", Device: dev, Grid: testGrid}},
		{"/v1/partition", PartitionRequest{Tenant: "t1", Devices: []DeviceSpec{dev, {Preset: "slow", Seed: 2}}, Grid: testGrid, D: 5000}},
		{"/v1/dynpart", DynpartRequest{Tenant: "t1", Devices: []DeviceSpec{dev, {Preset: "slow", Seed: 2}}, D: 3000}},
		{"/v1/balance", BalanceRequest{Tenant: "t1", N: 3, D: 600, Iterations: [][]float64{{1, 2, 3}}}},
		{"/v1/rebalance", rebalanceReq("t1")},
		{"/v1/matpart", matpartReq("t1")},
		{"/v1/machine", MachineRequest{Tenant: "t1", Machine: testMachineText}},
	}
	trailers := []struct {
		name, tail string
		status     int
	}{
		{"garbage", " x", http.StatusBadRequest},
		{"second value", ` {"tenant":"t2"}`, http.StatusBadRequest},
		{"stray brace", "}", http.StatusBadRequest},
		{"newline", "\n", http.StatusOK},
	}
	for _, e := range endpoints {
		body, err := json.Marshal(e.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trailers {
			t.Run(strings.TrimPrefix(e.path, "/v1/")+"/"+tr.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+e.path, "application/json", strings.NewReader(string(body)+tr.tail))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != tr.status {
					t.Fatalf("status %d, want %d", resp.StatusCode, tr.status)
				}
				if tr.status == http.StatusOK {
					return
				}
				var env map[string]string
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				if len(env) != 1 || !strings.HasPrefix(env["error"], "malformed request: ") {
					t.Errorf("body %v, want the error envelope of a malformed request", env)
				}
			})
		}
	}
}
