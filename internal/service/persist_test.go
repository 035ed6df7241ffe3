package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
	"fupermod/internal/platform"
	"fupermod/internal/service/modelstore"
)

// newStoreServer starts a server over dir and registers cleanup. Each call
// simulates one process lifetime against the same store directory.
func newStoreServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StoreDir = dir
	return newTestServer(t, cfg)
}

// TestCrashRestartByteIdentical is the crash/restart differential: fill a
// server over HTTP, stop it, start a fresh Server on the same -store-dir,
// and require byte-identical responses with the sweeps counter flat at
// zero — the restarted server must reproduce its models purely from disk.
func TestCrashRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()

	requests := []PartitionRequest{
		{
			Tenant:  "a",
			Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
			Grid:    testGrid,
			D:       10000,
		},
		{
			Tenant:    "b",
			Devices:   []DeviceSpec{{Preset: "gpu", Seed: 3, Noise: 0.05}, {Preset: "netlib-blas", Seed: 4, Noise: 0.05}},
			Grid:      testGrid,
			Algorithm: "numerical",
			Model:     model.KindAkima,
			D:         7000,
		},
	}
	measures := []MeasureRequest{
		{Tenant: "a", Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: testGrid},
		{Tenant: "b", Device: DeviceSpec{Preset: "gpu", Seed: 3, Noise: 0.05}, Grid: testGrid, Model: model.KindAkima},
	}

	// Lifetime 1: fill over HTTP.
	svc1, ts1 := newStoreServer(t, dir, Config{})
	var wantParts [][]byte
	var wantPoints [][]byte
	for _, req := range requests {
		status, body := postJSON(t, ts1.URL+"/v1/partition", req)
		if status != 200 {
			t.Fatalf("fill partition: status %d: %s", status, body)
		}
		wantParts = append(wantParts, body)
	}
	for _, req := range measures {
		status, body := postJSON(t, ts1.URL+"/v1/measure", req)
		if status != 200 {
			t.Fatalf("fill measure: status %d: %s", status, body)
		}
		wantPoints = append(wantPoints, body)
	}
	snap1 := getStats(t, ts1.URL)
	if snap1.Sweeps == 0 {
		t.Fatal("cold server swept nothing")
	}
	if snap1.StoreSpills != snap1.Sweeps {
		t.Errorf("spills=%d sweeps=%d: every sweep must be spilled", snap1.StoreSpills, snap1.Sweeps)
	}
	ts1.Close()
	svc1.Close()

	// Lifetime 2: fresh server, same directory. All responses must be
	// byte-identical and no sweep may run.
	_, ts2 := newStoreServer(t, dir, Config{})
	snap0 := getStats(t, ts2.URL)
	if snap0.StoreLoaded == 0 {
		t.Error("restart preloaded nothing from a warm store")
	}
	for i, req := range requests {
		status, body := postJSON(t, ts2.URL+"/v1/partition", req)
		if status != 200 {
			t.Fatalf("restart partition %d: status %d: %s", i, status, body)
		}
		if !bytes.Equal(body, wantParts[i]) {
			t.Errorf("partition %d diverges after restart:\n%s\n%s", i, body, wantParts[i])
		}
	}
	for i, req := range measures {
		status, body := postJSON(t, ts2.URL+"/v1/measure", req)
		if status != 200 {
			t.Fatalf("restart measure %d: status %d: %s", i, status, body)
		}
		if !bytes.Equal(body, wantPoints[i]) {
			t.Errorf("measure %d diverges after restart:\n%s\n%s", i, body, wantPoints[i])
		}
	}
	snap2 := getStats(t, ts2.URL)
	if snap2.Sweeps != 0 {
		t.Errorf("restarted server swept %d times; a warm store must mean zero re-sweeps", snap2.Sweeps)
	}
}

// TestPreloadFitsOnlyWhatTheCacheKeeps: a tenant with more stored entries
// than its LRU holds restarts with the newest CacheSize of them fitted and
// nothing evicted, while every entry counts as loaded. The newest keys are
// cache hits; the oldest, passed over at start, are store hits — all with
// the first lifetime's bytes and no sweep.
func TestPreloadFitsOnlyWhatTheCacheKeeps(t *testing.T) {
	const cacheSize, extra = 4, 3
	dir := t.TempDir()
	reqs := make([]MeasureRequest, cacheSize+extra)
	want := make([][]byte, len(reqs))
	_, ts1 := newStoreServer(t, dir, Config{CacheSize: cacheSize})
	for i := range reqs {
		reqs[i] = MeasureRequest{Tenant: "lru", Device: DeviceSpec{Preset: "fast", Seed: int64(i + 1)}, Grid: testGrid}
		status, body := postJSON(t, ts1.URL+"/v1/measure", reqs[i])
		if status != 200 {
			t.Fatalf("fill %d: status %d: %s", i, status, body)
		}
		want[i] = body
	}

	svc2, ts2 := newStoreServer(t, dir, Config{CacheSize: cacheSize})
	snap := getStats(t, ts2.URL)
	if snap.CacheEvictions != 0 || snap.CacheEntries != cacheSize || snap.StoreLoaded != int64(len(reqs)) {
		t.Fatalf("restart: cache_evictions %d, cache_entries %d, store_loaded %d; want 0, %d, %d",
			snap.CacheEvictions, snap.CacheEntries, snap.StoreLoaded, cacheSize, len(reqs))
	}
	// The LRU runs newest to oldest, as fitting every entry in store order
	// would leave it.
	svc2.mu.Lock()
	var seeds []int64
	for el := svc2.tenants["lru"].order.Front(); el != nil; el = el.Next() {
		seeds = append(seeds, el.Value.(*entry).key.Seed)
	}
	svc2.mu.Unlock()
	if want := []int64{7, 6, 5, 4}; !slices.Equal(seeds, want) {
		t.Errorf("LRU seeds front to back %v, want %v", seeds, want)
	}
	serve := func(idx []int) Snapshot {
		t.Helper()
		for _, i := range idx {
			status, body := postJSON(t, ts2.URL+"/v1/measure", reqs[i])
			if status != 200 {
				t.Fatalf("key %d: status %d: %s", i, status, body)
			}
			if !bytes.Equal(body, want[i]) {
				t.Errorf("key %d diverges after restart:\n%s\n%s", i, body, want[i])
			}
		}
		return getStats(t, ts2.URL)
	}
	newest := serve([]int{3, 4, 5, 6})
	if newest.CacheHits != cacheSize || newest.StoreHits != 0 || newest.Sweeps != 0 {
		t.Errorf("newest keys: cache_hits %d, store_hits %d, sweeps %d; want %d, 0, 0",
			newest.CacheHits, newest.StoreHits, newest.Sweeps, cacheSize)
	}
	oldest := serve([]int{0, 1, 2})
	if oldest.StoreHits != extra || oldest.Sweeps != 0 {
		t.Errorf("oldest keys: store_hits %d, sweeps %d; want %d, 0", oldest.StoreHits, oldest.Sweeps, extra)
	}
}

// TestRestartServesNonDefaultKindsFromStore: the preload fits the default
// kind, but any other model kind must still be answerable from the stored
// measurement (store hit at fill time), with no sweep.
func TestRestartServesNonDefaultKindsFromStore(t *testing.T) {
	dir := t.TempDir()
	req := MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 7}, Grid: testGrid, Model: model.KindAkima}

	_, ts1 := newStoreServer(t, dir, Config{})
	status, want := postJSON(t, ts1.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("fill: status %d", status)
	}

	_, ts2 := newStoreServer(t, dir, Config{})
	// A different kind over the same measurement conditions: the akima
	// sweep stored in lifetime 1 serves the constant-kind fill too.
	other := req
	other.Model = model.KindConstant
	if status, body := postJSON(t, ts2.URL+"/v1/measure", other); status != 200 {
		t.Fatalf("other-kind measure: status %d: %s", status, body)
	}
	status, got := postJSON(t, ts2.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("same-kind measure: status %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("points diverge after restart:\n%s\n%s", got, want)
	}
	snap := getStats(t, ts2.URL)
	if snap.Sweeps != 0 {
		t.Errorf("restarted server swept %d times", snap.Sweeps)
	}
	if snap.StoreHits == 0 {
		t.Error("non-default kind did not hit the store")
	}
}

// TestTornStoreFileReSweeps: a file truncated mid-write (the crash the
// trailer detects) is never served — the server counts it corrupt,
// re-sweeps cleanly, and the re-sweep heals the file on disk.
func TestTornStoreFileReSweeps(t *testing.T) {
	dir := t.TempDir()
	req := MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 9}, Grid: testGrid}

	_, ts1 := newStoreServer(t, dir, Config{})
	status, want := postJSON(t, ts1.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("fill: status %d", status)
	}

	// Tear every stored file.
	files, err := filepath.Glob(filepath.Join(dir, "*.points"))
	if err != nil || len(files) == 0 {
		t.Fatalf("store files: %v (err %v)", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, ts2 := newStoreServer(t, dir, Config{})
	snap0 := getStats(t, ts2.URL)
	if snap0.StoreCorrupt == 0 {
		t.Error("torn files not counted corrupt at preload")
	}
	if snap0.StoreLoaded != 0 {
		t.Errorf("preloaded %d entries from torn files", snap0.StoreLoaded)
	}
	status, got := postJSON(t, ts2.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("re-sweep: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-sweep diverges from original:\n%s\n%s", got, want)
	}
	snap := getStats(t, ts2.URL)
	if snap.Sweeps != 1 {
		t.Errorf("sweeps=%d, want exactly 1 (the healing re-sweep)", snap.Sweeps)
	}

	// Third lifetime: the heal must have repaired the file.
	_, ts3 := newStoreServer(t, dir, Config{})
	status, got3 := postJSON(t, ts3.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("healed measure: status %d", status)
	}
	if !bytes.Equal(got3, want) {
		t.Errorf("healed response diverges:\n%s\n%s", got3, want)
	}
	if snap3 := getStats(t, ts3.URL); snap3.Sweeps != 0 {
		t.Errorf("healed store still re-swept %d times", snap3.Sweeps)
	}
}

// TestUnfittableEntryIsNotSweptAgain: on a grid whose two sizes round to
// one float64 knot (2⁵³ and 2⁵³+1) the sweep runs and spills, but no
// piecewise model fits its points. Every request answers the fit's error,
// the same 400: the first sweeps and spills the entry, each later one reads
// it back from the store and sweeps nothing — a sweep is a pure function of
// its key, so sweeping again would reproduce the same points and error.
func TestUnfittableEntryIsNotSweptAgain(t *testing.T) {
	const huge = 1 << 53
	req := MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: Grid{Lo: huge, Hi: huge + 1, N: 2}}
	_, ts := newStoreServer(t, t.TempDir(), Config{})
	var first []byte
	for i := 1; i <= 3; i++ {
		status, body := postJSON(t, ts.URL+"/v1/measure", req)
		if status != http.StatusBadRequest {
			t.Fatalf("measure %d: status %d: %s; want 400", i, status, body)
		}
		if i == 1 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("measure %d answered %s, measure 1 %s", i, body, first)
		}
		snap := getStats(t, ts.URL)
		if snap.Sweeps != 1 || snap.StoreSpills != 1 || snap.StoreHits != int64(i-1) {
			t.Errorf("after measure %d: sweeps %d, store_spills %d, store_hits %d; want 1, 1, %d",
				i, snap.Sweeps, snap.StoreSpills, snap.StoreHits, i-1)
		}
	}
}

// TestStoreIsolatesPrecision: a sweep stored under another stopping rule
// must not serve a server sweeping under DefaultSweepPrecision.
func TestStoreIsolatesPrecision(t *testing.T) {
	dir := t.TempDir()
	dev := DeviceSpec{Preset: "fast", Seed: 3}
	req := MeasureRequest{Device: dev, Grid: testGrid}

	// Plant the key's sweep under a stricter rule, as a fupermod-bench run
	// with its own precision would.
	strict := DefaultSweepPrecision
	strict.MaxReps++
	d, err := platform.Preset(dev.Preset)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.NewVirtual(d.Name(), platform.NewMeter(d, platform.RelNoise(dev.Noise), dev.Seed), GEMMBlockFlops)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := core.Sweep(k, core.LogSizes(testGrid.Lo, testGrid.Hi, testGrid.N), strict)
	if err != nil {
		t.Fatal(err)
	}
	st, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := modelstore.Key{
		Tenant: TenantOf(""), Device: dev.Preset, Seed: dev.Seed,
		Lo: testGrid.Lo, Hi: testGrid.Hi, N: testGrid.N,
		Prec: modelstore.EncodePrecision(strict),
	}
	if err := st.Put(key, k.Name(), pts); err != nil {
		t.Fatal(err)
	}

	_, ts := newStoreServer(t, dir, Config{})
	snap0 := getStats(t, ts.URL)
	if snap0.StoreLoaded != 0 {
		t.Errorf("preloaded %d entries measured under a different precision", snap0.StoreLoaded)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/measure", req); status != 200 {
		t.Fatalf("measure failed")
	}
	if snap := getStats(t, ts.URL); snap.Sweeps != 1 {
		t.Errorf("sweeps=%d, want 1: a different precision is a different measurement", snap.Sweeps)
	}
}

// TestStoreRefusesUnreadableEntry: a key whose entry would hold a line no
// reader can read (a 70 KiB tenant) is not spilled. The request is served
// from its sweep, the refusal counts as a store error, and a second server
// on the same directory finds nothing corrupt.
func TestStoreRefusesUnreadableEntry(t *testing.T) {
	dir := t.TempDir()
	req := MeasureRequest{Tenant: strings.Repeat("t", 70<<10), Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: testGrid}

	_, plain := newTestServer(t, Config{})
	status, want := postJSON(t, plain.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("store-less measure: status %d: %s", status, want)
	}
	for i := 1; i <= 2; i++ {
		_, ts := newStoreServer(t, dir, Config{})
		status, got := postJSON(t, ts.URL+"/v1/measure", req)
		if status != 200 {
			t.Fatalf("server %d: status %d: %s", i, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("server %d served other points than the sweep:\n%s\n%s", i, got, want)
		}
		snap := getStats(t, ts.URL)
		if snap.StoreErrors != 1 || snap.StoreSpills != 0 || snap.StoreCorrupt != 0 {
			t.Errorf("server %d: store_errors %d, store_spills %d, store_corrupt %d; want 1, 0, 0",
				i, snap.StoreErrors, snap.StoreSpills, snap.StoreCorrupt)
		}
	}
}
