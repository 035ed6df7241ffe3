package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func getStats(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// directModel replicates the service's cache fill through the library:
// same preset, same seeded meter, same serial sweep, same model kind.
func directModel(t *testing.T, dev DeviceSpec, grid Grid, kind string) (core.Model, []core.Point) {
	t.Helper()
	d, err := platform.Preset(dev.Preset)
	if err != nil {
		t.Fatal(err)
	}
	meter := platform.NewMeter(d, platform.RelNoise(dev.Noise), dev.Seed)
	k, err := kernels.NewVirtual(d.Name(), meter, GEMMBlockFlops)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := core.Sweep(k, core.LogSizes(grid.Lo, grid.Hi, grid.N), DefaultSweepPrecision)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.UpdateAll(m, pts); err != nil {
		t.Fatal(err)
	}
	return m, pts
}

// directPartitionBytes computes the byte-exact response the service must
// produce for req, going through the library only.
func directPartitionBytes(t *testing.T, req PartitionRequest) []byte {
	t.Helper()
	kind := req.Model
	if kind == "" {
		kind = model.KindPiecewise
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "geometric"
	}
	models := make([]core.Model, len(req.Devices))
	for i, dev := range req.Devices {
		models[i], _ = directModel(t, dev, req.Grid, kind)
	}
	p, err := partition.ByName(algorithm)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := p.Partition(models, req.D)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]PartPayload, len(dist.Parts))
	for i, part := range dist.Parts {
		parts[i] = PartPayload{Device: req.Devices[i].Preset, Units: part.D, TimeS: part.Time}
	}
	imb := dist.Imbalance()
	if math.IsInf(imb, 0) || math.IsNaN(imb) {
		imb = -1
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(PartitionResponse{
		Algorithm: algorithm,
		Model:     kind,
		D:         req.D,
		Parts:     parts,
		MakespanS: dist.MaxTime(),
		Imbalance: imb,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var testGrid = Grid{Lo: 16, Hi: 2000, N: 8}

func TestPartitionMatchesDirectPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []PartitionRequest{
		{
			Tenant:  "a",
			Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
			Grid:    testGrid,
			D:       10000,
		},
		{
			Tenant:    "a",
			Devices:   []DeviceSpec{{Preset: "fast", Seed: 1, Noise: 0.05}, {Preset: "netlib-blas", Seed: 3, Noise: 0.05}},
			Grid:      testGrid,
			Model:     model.KindPiecewise,
			Algorithm: "geometric",
			D:         4000,
		},
		{
			Tenant:    "b",
			Devices:   []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}, {Preset: "paging", Seed: 9}},
			Grid:      testGrid,
			Model:     model.KindConstant,
			Algorithm: "constant",
			D:         7000,
		},
		{
			Tenant:    "b",
			Devices:   []DeviceSpec{{Preset: "fast", Seed: 4}, {Preset: "slow", Seed: 5}},
			Grid:      testGrid,
			Model:     model.KindAkima,
			Algorithm: "numerical",
			D:         9000,
		},
		{
			Tenant:    "c",
			Devices:   []DeviceSpec{{Preset: "gpu", Seed: 1}, {Preset: "slow", Seed: 2}},
			Grid:      testGrid,
			Algorithm: "even",
			D:         5000,
		},
	}
	for i, req := range cases {
		want := directPartitionBytes(t, req)
		status, got := postJSON(t, ts.URL+"/v1/partition", req)
		if status != http.StatusOK {
			t.Fatalf("case %d: status %d: %s", i, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: response diverges from direct library path:\nservice: %s\ndirect:  %s", i, got, want)
		}
	}
}

// TestConcurrentMixedTenants is the load acceptance test: ≥ 100 concurrent
// partition requests across multiple tenants, every response byte-identical
// to the direct library path, and — via the sweep counter — exactly one
// sweep per distinct (tenant, model key) despite the concurrency
// (single-flight + cache).
func TestConcurrentMixedTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	deviceSets := [][]DeviceSpec{
		{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		{{Preset: "netlib-blas", Seed: 3, Noise: 0.02}, {Preset: "gpu", Seed: 4, Noise: 0.02}},
		{{Preset: "paging", Seed: 5}, {Preset: "fast", Seed: 1}},
	}
	Ds := []int{5000, 12000}

	type combo struct {
		req  PartitionRequest
		want []byte
	}
	var combos []combo
	distinct := make(map[string]bool)
	for _, tenant := range tenants {
		for si, devs := range deviceSets {
			for di, D := range Ds {
				req := PartitionRequest{Tenant: tenant, Devices: devs, Grid: testGrid, D: D}
				combos = append(combos, combo{req: req, want: directPartitionBytes(t, req)})
				for _, dev := range devs {
					key, err := keyOf(dev, testGrid, "")
					if err != nil {
						t.Fatal(err)
					}
					distinct[tenant+"|"+key.String()] = true
				}
				_ = si
				_ = di
			}
		}
	}

	const requests = 120
	var wg sync.WaitGroup
	errs := make(chan string, requests)
	for i := 0; i < requests; i++ {
		c := combos[i%len(combos)]
		wg.Add(1)
		go func(i int, c combo) {
			defer wg.Done()
			body, err := json.Marshal(c.req)
			if err != nil {
				errs <- err.Error()
				return
			}
			resp, err := http.Post(ts.URL+"/v1/partition", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("request %d: status %d: %s", i, resp.StatusCode, buf.String())
				return
			}
			if !bytes.Equal(buf.Bytes(), c.want) {
				errs <- fmt.Sprintf("request %d: response diverges from direct path:\nservice: %s\ndirect:  %s",
					i, buf.String(), c.want)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	snap := getStats(t, ts.URL)
	if int(snap.Sweeps) != len(distinct) {
		t.Errorf("sweeps = %d, want exactly one per distinct (tenant, key) = %d", snap.Sweeps, len(distinct))
	}
	if snap.Errors != 0 {
		t.Errorf("stats report %d errored requests", snap.Errors)
	}
	if snap.Tenants != len(tenants) {
		t.Errorf("tenants = %d, want %d", snap.Tenants, len(tenants))
	}
}

// TestSecondRequestIsCacheHit pins the no-re-sweep guarantee through the
// sweep-count instrumentation: an identical second request must be served
// from the cache, byte-identical, without measuring again.
func TestSecondRequestIsCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PartitionRequest{
		Devices: []DeviceSpec{{Preset: "fast", Seed: 7, Noise: 0.03}, {Preset: "slow", Seed: 8, Noise: 0.03}},
		Grid:    testGrid,
		D:       8000,
	}
	status, first := postJSON(t, ts.URL+"/v1/partition", req)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, first)
	}
	s1 := getStats(t, ts.URL)
	if s1.Sweeps != 2 || s1.CacheMisses != 2 {
		t.Fatalf("first request: sweeps=%d misses=%d, want 2/2", s1.Sweeps, s1.CacheMisses)
	}

	status, second := postJSON(t, ts.URL+"/v1/partition", req)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d: %s", status, second)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("identical requests returned different bytes:\n%s\n%s", first, second)
	}
	s2 := getStats(t, ts.URL)
	if s2.Sweeps != s1.Sweeps {
		t.Errorf("second identical request re-swept: %d → %d sweeps", s1.Sweeps, s2.Sweeps)
	}
	if s2.CacheHits != s1.CacheHits+2 {
		t.Errorf("cache hits %d → %d, want +2", s1.CacheHits, s2.CacheHits)
	}
	if !bytes.Equal(first, directPartitionBytes(t, req)) {
		t.Error("cached response diverges from direct library path")
	}
}

// TestSingleFlight: many concurrent identical requests perform exactly one
// sweep per device — the rest either join the in-flight fill or hit the
// finished entry.
func TestSingleFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := MeasureRequest{
		Tenant: "sf",
		Device: DeviceSpec{Preset: "netlib-blas", Seed: 11, Noise: 0.05},
		Grid:   Grid{Lo: 16, Hi: 5000, N: 30},
	}
	const clients = 50
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/measure", req)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	snap := getStats(t, ts.URL)
	if snap.Sweeps != 1 {
		t.Errorf("sweeps = %d, want 1 (single-flight)", snap.Sweeps)
	}
	if snap.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1", snap.CacheMisses)
	}
	if snap.CacheHits+snap.CacheCoalesced != clients-1 {
		t.Errorf("hits %d + coalesced %d, want %d", snap.CacheHits, snap.CacheCoalesced, clients-1)
	}
}

// TestBatching: with the model cache primed, identical partition requests
// in flight together share a single solver call.
func TestBatching(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	req := PartitionRequest{
		Tenant:  "batch",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
		D:       6000,
	}
	// Prime the model cache so the partition requests reach the batcher
	// immediately.
	for _, dev := range req.Devices {
		status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Tenant: req.Tenant, Device: dev, Grid: req.Grid})
		if status != http.StatusOK {
			t.Fatalf("prime: status %d: %s", status, body)
		}
	}
	// Hold the leader inside its run, so every other request joins it.
	unplug := plugPool(t, svc)
	const clients = 20
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/partition", req)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	waitUntil(t, "the requests to join one batch", func() bool { return svc.stats.BatchJoined.Load() == clients-1 })
	unplug()
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	snap := getStats(t, ts.URL)
	if snap.BatchSolves != 1 {
		t.Errorf("solver calls = %d, want 1 for %d batched requests", snap.BatchSolves, clients)
	}
	if snap.BatchJoined != clients-1 {
		t.Errorf("joined = %d, want %d", snap.BatchJoined, clients-1)
	}
	if !bytes.Equal(bodies[0], directPartitionBytes(t, req)) {
		t.Error("batched response diverges from direct library path")
	}
}

// TestCacheEviction: the per-tenant LRU drops the oldest entry at the
// bound, and a re-request of an evicted key sweeps again.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 2})
	devs := []DeviceSpec{
		{Preset: "fast", Seed: 1},
		{Preset: "slow", Seed: 1},
		{Preset: "paging", Seed: 1},
	}
	measure := func(dev DeviceSpec) {
		status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Tenant: "ev", Device: dev, Grid: testGrid})
		if status != http.StatusOK {
			t.Fatalf("measure %s: status %d: %s", dev.Preset, status, body)
		}
	}
	for _, dev := range devs {
		measure(dev)
	}
	snap := getStats(t, ts.URL)
	if snap.CacheEvictions != 1 {
		t.Errorf("evictions = %d, want 1 (3 fills into a 2-entry cache)", snap.CacheEvictions)
	}
	if snap.CacheEntries != 2 {
		t.Errorf("entries = %d, want 2", snap.CacheEntries)
	}
	// The first device was the LRU victim; requesting it again re-sweeps.
	measure(devs[0])
	snap2 := getStats(t, ts.URL)
	if snap2.Sweeps != 4 || snap2.CacheMisses != 4 {
		t.Errorf("re-request of evicted key: sweeps=%d misses=%d, want 4/4", snap2.Sweeps, snap2.CacheMisses)
	}
	if snap2.CacheHits != 0 {
		t.Errorf("unexpected cache hits %d", snap2.CacheHits)
	}
}

// TestShutdownDraining: an in-flight request (held open by a plugged pool
// for the first 100 ms of the drain) survives http.Server.Shutdown — the
// drain waits for it and the client receives the complete, correct
// response.
func TestShutdownDraining(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Start()
	base := ts.URL
	unplug := plugPool(t, svc)

	req := PartitionRequest{
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
		D:       6000,
	}
	want := directPartitionBytes(t, req)

	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		status, body := postJSON(t, base+"/v1/partition", req)
		done <- result{status, body}
	}()
	// Once the request misses the cache it waits for the pool; drain, and
	// release it 100 ms into the drain.
	waitUntil(t, "the request to miss the cache", func() bool { return svc.stats.CacheMisses.Load() == 1 })
	start := time.Now()
	time.AfterFunc(100*time.Millisecond, unplug)
	ts.Config.Shutdown(context.Background())
	drain := time.Since(start)

	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("drained request: status %d: %s", res.status, res.body)
	}
	if !bytes.Equal(res.body, want) {
		t.Errorf("drained response diverges from direct path:\n%s\n%s", res.body, want)
	}
	if drain < 100*time.Millisecond {
		t.Errorf("shutdown returned in %s, before the in-flight request could finish", drain)
	}
	// New connections are refused after drain.
	if _, err := http.Post(base+"/v1/partition", "application/json", strings.NewReader("{}")); err == nil {
		t.Error("request after shutdown should fail")
	}
}

// TestClosedServerFailsFills: after Close, cache fills abort instead of
// hanging.
func TestClosedServerFailsFills(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Close()
	status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
		Device: DeviceSpec{Preset: "fast", Seed: 1},
		Grid:   testGrid,
	})
	if status == http.StatusOK {
		t.Errorf("closed server served a fill: %s", body)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	valid := PartitionRequest{
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}},
		Grid:    testGrid,
		D:       100,
	}
	cases := []struct {
		name   string
		mutate func(*PartitionRequest)
	}{
		{"no devices", func(r *PartitionRequest) { r.Devices = nil }},
		{"unknown preset", func(r *PartitionRequest) { r.Devices = []DeviceSpec{{Preset: "nope"}} }},
		{"bad grid", func(r *PartitionRequest) { r.Grid = Grid{Lo: 10, Hi: 5, N: 3} }},
		{"zero D", func(r *PartitionRequest) { r.D = 0 }},
		{"negative noise", func(r *PartitionRequest) { r.Devices = []DeviceSpec{{Preset: "fast", Noise: -1}} }},
		{"unknown model", func(r *PartitionRequest) { r.Model = "nope" }},
		{"unknown algorithm", func(r *PartitionRequest) { r.Algorithm = "nope" }},
		{"too many devices", func(r *PartitionRequest) {
			for i := 0; i <= MaxDevices; i++ {
				r.Devices = append(r.Devices, DeviceSpec{Preset: "fast", Seed: int64(i)})
			}
		}},
	}
	for _, c := range cases {
		req := valid
		req.Devices = append([]DeviceSpec(nil), valid.Devices...)
		c.mutate(&req)
		status, body := postJSON(t, ts.URL+"/v1/partition", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, status, body)
		}
	}

	// The decoder's strictness: malformed JSON, an unknown field, a wrong
	// type and an empty body are all 400s.
	for _, body := range []string{"{nope", `{"tenant":"x","bogus":1}`, `{"d":"not a number"}`, ""} {
		resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/partition")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/partition: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: status %d, want 405", resp.StatusCode)
	}
	// Error counter moved.
	if snap := getStats(t, ts.URL); snap.Errors == 0 {
		t.Error("error counter did not move")
	}
}

func TestMeasureAndModelEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dev := DeviceSpec{Preset: "netlib-blas", Seed: 21, Noise: 0.02}
	grid := Grid{Lo: 16, Hi: 3000, N: 10}

	status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Device: dev, Grid: grid})
	if status != http.StatusOK {
		t.Fatalf("measure: status %d: %s", status, body)
	}
	var mr MeasureResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	_, wantPts := directModel(t, dev, grid, model.KindPiecewise)
	if len(mr.Points) != len(wantPts) {
		t.Fatalf("measure returned %d points, direct sweep %d", len(mr.Points), len(wantPts))
	}
	for i, p := range mr.Points {
		if p.D != wantPts[i].D || p.TimeS != wantPts[i].Time || p.Reps != wantPts[i].Reps {
			t.Errorf("point %d = %+v, direct %+v", i, p, wantPts[i])
		}
	}

	status, body = postJSON(t, ts.URL+"/v1/model", ModelRequest{Device: dev, Grid: grid, Model: model.KindAkima})
	if status != http.StatusOK {
		t.Fatalf("model: status %d: %s", status, body)
	}
	var mor ModelResponse
	if err := json.Unmarshal(body, &mor); err != nil {
		t.Fatal(err)
	}
	if mor.Model != model.KindAkima {
		t.Errorf("model kind %q", mor.Model)
	}
	if len(mor.Eval) == 0 {
		t.Fatal("no evaluation rows")
	}
	for _, e := range mor.Eval {
		if !(e.TimeS > 0) || !(e.Speed > 0) {
			t.Errorf("eval at %d: time %g speed %g", e.D, e.TimeS, e.Speed)
		}
	}
	// The two requests used different model kinds → two cache entries.
	if snap := getStats(t, ts.URL); snap.Sweeps != 2 {
		t.Errorf("sweeps = %d, want 2 (distinct model kinds are distinct keys)", snap.Sweeps)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestTenantIsolation: the same key under two tenants occupies two cache
// entries — tenants never share fitted models.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: testGrid}
	for _, tenant := range []string{"t1", "t2"} {
		r := req
		r.Tenant = tenant
		status, body := postJSON(t, ts.URL+"/v1/measure", r)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tenant, status, body)
		}
	}
	snap := getStats(t, ts.URL)
	if snap.Sweeps != 2 || snap.Tenants != 2 {
		t.Errorf("sweeps=%d tenants=%d, want 2/2 (no cross-tenant sharing)", snap.Sweeps, snap.Tenants)
	}
}
