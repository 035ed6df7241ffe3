package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
)

// transferGrid is large enough that the default probe budget (a quarter of
// the grid) leaves room for active sampling above the initial probes.
var transferGrid = Grid{Lo: 16, Hi: 60000, N: 40}

// seedDonor fills the store at dir with a full-sweep entry by running one
// measure through a transfer-off server — exactly how a warm fleet's donor
// pool comes to exist.
func seedDonor(t *testing.T, dir string, req MeasureRequest) {
	t.Helper()
	_, ts := newTestServer(t, Config{StoreDir: dir})
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("seed donor: status %d: %s", status, body)
	}
}

func TestTransferWarmStartsColdTenant(t *testing.T) {
	dir := t.TempDir()
	donor := MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: transferGrid}
	seedDonor(t, dir, donor)

	svc, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	cold := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: transferGrid}
	status, body := postJSON(t, ts.URL+"/v1/measure", cold)
	if status != 200 {
		t.Fatalf("cold measure: status %d: %s", status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 1 || snap.TransferFallbacks != 0 {
		t.Fatalf("want 1 transfer run and no fallbacks, got runs=%d fallbacks=%d",
			snap.TransferRuns, snap.TransferFallbacks)
	}
	budget := 0
	if sizes := len(gridSizes(t, transferGrid)); sizes > 0 {
		budget = sizes / 4
	}
	if snap.TransferProbes <= 0 || snap.TransferProbes > int64(budget) {
		t.Fatalf("transfer spent %d probes, want 1..%d", snap.TransferProbes, budget)
	}
	// The cold key's store entry carries the transfer provenance, naming
	// the donor, and the store census counts it.
	sk, ok := svc.storeKey("cold", ModelKey{
		Device: "fast", Seed: 1, Lo: transferGrid.Lo, Hi: transferGrid.Hi, N: transferGrid.N,
	})
	if !ok {
		t.Fatal("store should be configured")
	}
	ent, ok, err := svc.store.Get(sk)
	if err != nil || !ok {
		t.Fatalf("cold entry: ok=%v err=%v", ok, err)
	}
	if ent.Transfer == "" {
		t.Fatal("cold entry should carry transfer provenance")
	}
	// The cold measure answers the entry's points: the cache keeps only
	// the model, and the model keeps the points it was fitted to.
	var resp MeasureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if want := pointPayloads(ent.Points); !reflect.DeepEqual(resp.Points, want) {
		t.Fatalf("cold measure points differ from the stored entry's:\n got  %v\n want %v", resp.Points, want)
	}
	for _, want := range []string{"donor=", "scale=", "probes=", "maxdiff="} {
		if !bytes.Contains([]byte(ent.Transfer), []byte(want)) {
			t.Fatalf("provenance %q missing %q", ent.Transfer, want)
		}
	}
	if snap.Store.Entries != 2 || snap.Store.Transferred != 1 {
		t.Fatalf("store census: %+v", snap.Store)
	}
	if snap.Store.Tenants["warm"] != 1 || snap.Store.Tenants["cold"] != 1 {
		t.Fatalf("per-tenant census: %+v", snap.Store.Tenants)
	}
}

// gridSizes resolves a Grid to its concrete sizes through the same core
// helper the server uses.
func gridSizes(t *testing.T, g Grid) []int {
	t.Helper()
	sizes := logSizesForTest(g)
	if len(sizes) == 0 {
		t.Fatalf("empty grid %+v", g)
	}
	return sizes
}

func TestTransferEmptyStoreFallsBackByteIdentical(t *testing.T) {
	req := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "fast", Seed: 3, Noise: 0.05}, Grid: transferGrid}

	_, plain := newTestServer(t, Config{StoreDir: t.TempDir()})
	wantStatus, wantBody := postJSON(t, plain.URL+"/v1/measure", req)

	svc, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Transfer: true})
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != wantStatus || !bytes.Equal(body, wantBody) {
		t.Fatalf("empty-store fallback diverged from the transfer-off server:\n off: %d %s\n on:  %d %s",
			wantStatus, wantBody, status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 0 || snap.TransferFallbacks != 1 {
		t.Fatalf("want a pure fallback, got runs=%d fallbacks=%d", snap.TransferRuns, snap.TransferFallbacks)
	}
	if snap.TransferProbes != 0 {
		// The empty pool is detected before any probing: a cold fleet pays
		// exactly the full sweep, not probes + sweep.
		t.Fatalf("empty-store fallback should spend no probes, spent %d", snap.TransferProbes)
	}
	// The healed entry is a plain full sweep: no provenance.
	sk, _ := svc.storeKey("cold", ModelKey{
		Device: "fast", Seed: 3, Noise: 0.05, Lo: transferGrid.Lo, Hi: transferGrid.Hi, N: transferGrid.N,
	})
	if ent, ok, err := svc.store.Get(sk); err != nil || !ok || ent.Transfer != "" {
		t.Fatalf("fallback entry: ok=%v err=%v transfer=%q", ok, err, ent.Transfer)
	}
}

func TestTransferAdversarialDonorFallsBackByteIdentical(t *testing.T) {
	// The donor pool holds only a wrong-shape curve (the gpu preset's
	// cliff); the target is the smooth netlib-blas device. The residual
	// gate must reject the donor and the fallback must serve exactly what
	// a transfer-off server serves — zero wrong bytes.
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "gpu", Seed: 1}, Grid: transferGrid})

	req := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "netlib-blas", Seed: 5, Noise: 0.03}, Grid: transferGrid}
	_, plain := newTestServer(t, Config{StoreDir: t.TempDir()})
	wantStatus, wantBody := postJSON(t, plain.URL+"/v1/measure", req)

	_, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != wantStatus || !bytes.Equal(body, wantBody) {
		t.Fatalf("adversarial-donor fallback diverged from the transfer-off server:\n off: %d %s\n on:  %d %s",
			wantStatus, wantBody, status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 0 || snap.TransferFallbacks != 1 {
		t.Fatalf("want a gate rejection, got runs=%d fallbacks=%d", snap.TransferRuns, snap.TransferFallbacks)
	}
	if snap.TransferProbes == 0 {
		t.Fatal("gate rejection happens after probing; want probes > 0")
	}
}

func TestTransferSingleDonorStore(t *testing.T) {
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "slow", Seed: 2}, Grid: transferGrid})

	_, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	status, body := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "slow", Seed: 2}, Grid: transferGrid})
	if status != 200 {
		t.Fatalf("cold measure: status %d: %s", status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 1 {
		t.Fatalf("single matching donor should transfer, got runs=%d fallbacks=%d",
			snap.TransferRuns, snap.TransferFallbacks)
	}
}

func TestTransferColdStartStormSingleFlight(t *testing.T) {
	// Two servers share one store directory (Open dedupes the handle, so
	// modelstore's single-flight spans them) and a storm of concurrent
	// requests hits the same cold key on both. Exactly one transfer
	// acquisition may run; every response must be byte-identical.
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "fast", Seed: 4}, Grid: transferGrid})

	svcA, tsA := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	svcB, tsB := newTestServer(t, Config{StoreDir: dir, Transfer: true})

	req := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "fast", Seed: 4}, Grid: transferGrid}
	const perServer = 4
	type result struct {
		status int
		body   []byte
	}
	results := make([]result, 2*perServer)
	var wg sync.WaitGroup
	for i := 0; i < perServer; i++ {
		for j, url := range []string{tsA.URL, tsB.URL} {
			wg.Add(1)
			go func(slot int, url string) {
				defer wg.Done()
				status, body := postJSON(t, url+"/v1/measure", req)
				results[slot] = result{status, body}
			}(i*2+j, url)
		}
	}
	wg.Wait()
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d diverged:\n%s\nvs\n%s", i, r.body, results[0].body)
		}
	}
	runs := int64(0)
	for _, ts := range []string{tsA.URL, tsB.URL} {
		runs += getStats(t, ts).TransferRuns
	}
	if runs != 1 {
		t.Fatalf("storm must transfer exactly once across the fleet, got %d", runs)
	}
	_, _ = svcA, svcB
}

// TestTransferDonorIndexRace runs donor queries beside Puts and transfer
// fills from two servers sharing one store directory; run it with -race
// -count=10. Once the writers stop, the index must rank exactly as a full
// re-read of the store does.
func TestTransferDonorIndexRace(t *testing.T) {
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: transferGrid})
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "slow", Seed: 1}, Grid: transferGrid})
	_, tsA := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	_, tsB := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := logSizesForTest(transferGrid)
	curve := func(scale, p float64) []core.Point {
		pts := make([]core.Point, len(sizes))
		for i, d := range sizes {
			pts[i] = core.Point{D: d, Time: scale * 1e-7 * math.Pow(float64(d), p), Reps: 1}
		}
		return pts
	}
	storeKey := func(tenant string, seed int64) modelstore.Key {
		return modelstore.Key{Tenant: tenant, Device: "fast", Seed: seed,
			Lo: transferGrid.Lo, Hi: transferGrid.Hi, N: transferGrid.N,
			Prec: modelstore.EncodePrecision(DefaultSweepPrecision)}
	}
	exclude := storeKey("probe", 99)
	full := curve(3, 1.1)
	probes := []core.Point{full[0], full[13], full[26], full[39]}

	const rounds = 6
	var wg sync.WaitGroup
	for i, url := range []string{tsA.URL, tsB.URL} {
		wg.Add(1)
		go func(i int, url string) { // transfer fills, distinct cold keys
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				body, err := json.Marshal(MeasureRequest{Tenant: fmt.Sprintf("cold-%d-%d", i, j),
					Device: DeviceSpec{Preset: []string{"fast", "slow"}[j%2], Seed: int64(j + 2)}, Grid: transferGrid})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(url+"/v1/measure", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("fill %d/%d: status %d", i, j, resp.StatusCode)
				}
			}
		}(i, url)
	}
	wg.Add(2)
	go func() { // Puts through the shared handle
		defer wg.Done()
		for j := 0; j < rounds; j++ {
			if err := store.Put(storeKey(fmt.Sprintf("put-%d", j), 1), "k", curve(float64(j+1), 1+0.05*float64(j))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // donor queries and census reads
		defer wg.Done()
		for j := 0; j < 2*rounds; j++ {
			donors, err := store.Donors(exclude)
			if err != nil {
				t.Error(err)
				return
			}
			if donors.Len() == 0 || len(donors.Rank(probes, transfer.DefaultCandidates)) == 0 {
				t.Error("the seeded donors should always rank")
				return
			}
			if _, err := store.Stats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if runs := getStats(t, tsA.URL).TransferRuns + getStats(t, tsB.URL).TransferRuns; runs == 0 {
		t.Fatal("no fill transferred: the donor search never ran beside the writers")
	}

	pool, err := store.DonorPool(exclude)
	if err != nil {
		t.Fatal(err)
	}
	donors, err := store.Donors(exclude)
	if err != nil {
		t.Fatal(err)
	}
	got, want := donors.Rank(probes, 0), transfer.Rank(pool, probes, 0)
	if len(got) != len(want) {
		t.Fatalf("index ranks %d donors, full re-read %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Donor.ID != want[i].Donor.ID || got[i].Distance != want[i].Distance ||
			!reflect.DeepEqual(got[i].Donor.Points, want[i].Donor.Points) {
			t.Fatalf("candidate %d: index %s at %v, full re-read %s at %v",
				i, got[i].Donor.ID, got[i].Distance, want[i].Donor.ID, want[i].Distance)
		}
	}
}

func TestNewRejectsTransferWithoutStore(t *testing.T) {
	if _, err := New(Config{Transfer: true}); err == nil {
		t.Fatal("Transfer without StoreDir must be rejected")
	}
}

// logSizesForTest mirrors the server's grid resolution.
func logSizesForTest(g Grid) []int {
	return core.LogSizes(g.Lo, g.Hi, g.N)
}
