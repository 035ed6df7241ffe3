package service

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fupermod/internal/model"
)

// diffCase is one request of the cross-replica differential corpus.
type diffCase struct {
	name string
	path string
	req  any
	// direct, when non-nil, computes the byte-exact response through the
	// library only — the ground truth every fleet size must reproduce.
	direct func(t *testing.T) []byte
}

// diffCorpus is the mixed-tenant battery: every endpoint that computes
// from models, spread over enough distinct tenants that a round-robin
// fleet serves them from different servers.
func diffCorpus() []diffCase {
	measure := MeasureRequest{
		Tenant: "alpha",
		Device: DeviceSpec{Preset: "fast", Seed: 11},
		Grid:   testGrid,
	}
	partPlain := PartitionRequest{
		Tenant:  "beta",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
		D:       10000,
	}
	partAkima := PartitionRequest{
		Tenant:    "gamma",
		Devices:   []DeviceSpec{{Preset: "gpu", Seed: 3, Noise: 0.05}, {Preset: "netlib-blas", Seed: 4, Noise: 0.05}},
		Grid:      testGrid,
		Algorithm: "numerical",
		Model:     model.KindAkima,
		D:         7000,
	}
	partComm := PartitionRequest{
		Tenant:  "delta",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 5}, {Preset: "slow", Seed: 6}},
		Grid:    testGrid,
		D:       9000,
		Comm:    &CommSpec{Net: "gigabit", Op: "halo", Model: "hockney", BytesPerUnit: 256},
	}
	dynpart := DynpartRequest{
		Tenant:  "epsilon",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 7}, {Preset: "slow", Seed: 8}},
		D:       3000,
	}
	balance := BalanceRequest{
		Tenant: "zeta",
		N:      3,
		D:      600,
		Iterations: [][]float64{
			{1.0, 2.0, 3.0},
			{1.5, 1.5, 2.0},
			{1.4, 1.5, 1.6},
		},
	}
	rebal := rebalanceReq("eta")
	matp := matpartReq("theta")
	defaultTenant := MeasureRequest{
		// The empty tenant canonicalises to "default" — it must produce
		// the same bytes on every topology.
		Device: DeviceSpec{Preset: "slow", Seed: 12},
		Grid:   testGrid,
	}
	return []diffCase{
		{
			name: "measure/alpha", path: "/v1/measure", req: measure,
			direct: func(t *testing.T) []byte { return directMeasureBytes(t, measure) },
		},
		{
			name: "partition/beta", path: "/v1/partition", req: partPlain,
			direct: func(t *testing.T) []byte { return directPartitionBytes(t, partPlain) },
		},
		{
			name: "partition/gamma-akima", path: "/v1/partition", req: partAkima,
			direct: func(t *testing.T) []byte { return directPartitionBytes(t, partAkima) },
		},
		// Comm-aware partitioning has no one-line direct helper (the comm
		// calibration rides the service's comm cache); its ground truth is
		// cross-topology identity, anchored by the plain cases above.
		{name: "partition/delta-comm", path: "/v1/partition", req: partComm},
		{name: "dynpart/epsilon", path: "/v1/dynpart", req: dynpart},
		{name: "balance/zeta", path: "/v1/balance", req: balance},
		{
			name: "rebalance/eta", path: "/v1/rebalance", req: rebal,
			direct: func(t *testing.T) []byte { return directRebalanceBytes(t, rebal) },
		},
		{
			name: "matpart/theta", path: "/v1/matpart", req: matp,
			direct: func(t *testing.T) []byte { return directMatpartBytes(t, matp) },
		},
		{name: "measure/default-tenant", path: "/v1/measure", req: defaultTenant},
	}
}

// directMeasureBytes computes the byte-exact /v1/measure response for req
// through the library only.
func directMeasureBytes(t *testing.T, req MeasureRequest) []byte {
	t.Helper()
	kind := req.Model
	if kind == "" {
		kind = model.KindPiecewise
	}
	_, pts := directModel(t, req.Device, req.Grid, kind)
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, MeasureResponse{
		Device: req.Device.Preset,
		Model:  kind,
		Points: pointPayloads(pts),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runDiffCorpus fires the whole corpus at once (every case concurrently),
// case i at bases[(i+shift) % len(bases)], and returns the response bytes
// per case, failing on any non-200.
func runDiffCorpus(t *testing.T, corpus []diffCase, shift int, bases ...string) [][]byte {
	t.Helper()
	out := make([][]byte, len(corpus))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for i, c := range corpus {
		wg.Add(1)
		go func(i int, c diffCase) {
			defer wg.Done()
			status, body := postJSON(t, bases[(i+shift)%len(bases)]+c.path, c.req)
			if status != 200 {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("%s: status %d: %s", c.name, status, body))
				mu.Unlock()
				return
			}
			out[i] = body
		}(i, c)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// TestCrossReplicaDifferential is the fleet gate: the same mixed-tenant
// corpus, served round-robin by 1, 2 and 4 Servers sharing one store
// directory (each server one shard of the fleet, as fupermod-route would
// front them), must produce byte-identical responses — and, where the
// library path has a direct encoding, bytes identical to the library
// itself. The fleet must sweep exactly what the single server sweeps: the
// store's cross-replica single-flight forbids a second sweep of a key.
// The number of servers is a performance topology, never an observable
// one.
func TestCrossReplicaDifferential(t *testing.T) {
	corpus := diffCorpus()

	// Ground truth from the library, computed once.
	want := make([][]byte, len(corpus))
	for i, c := range corpus {
		if c.direct != nil {
			want[i] = c.direct(t)
		}
	}

	// Baseline topology: one server.
	var baseline [][]byte
	var baseSweeps int64
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			bases := make([]string, n)
			for i := range bases {
				_, ts := newStoreServer(t, dir, Config{Workers: 4})
				bases[i] = ts.URL
			}
			got := runDiffCorpus(t, corpus, 0, bases...)
			// Serve the corpus a second time, each case on the next server:
			// answers from the caches and the shared store must be
			// byte-identical to cold fills.
			again := runDiffCorpus(t, corpus, 1, bases...)
			for i, c := range corpus {
				if !bytes.Equal(got[i], again[i]) {
					t.Errorf("%s: warm response differs from cold response", c.name)
				}
				if want[i] != nil && !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s: differs from the direct library path\ngot:  %s\nwant: %s", c.name, got[i], want[i])
				}
			}
			var sweeps int64
			for _, base := range bases {
				sweeps += getStats(t, base).Sweeps
			}
			if baseline == nil {
				baseline, baseSweeps = got, sweeps
				return
			}
			for i, c := range corpus {
				if !bytes.Equal(got[i], baseline[i]) {
					t.Errorf("%s: %d-server response differs from 1-server response\ngot:  %s\nwant: %s",
						c.name, n, got[i], baseline[i])
				}
			}
			if sweeps != baseSweeps {
				t.Errorf("%d servers swept %d times, the single server %d", n, sweeps, baseSweeps)
			}
		})
	}
}

// TestDifferentialMatchesDirectLibrary pins the corpus's direct cases
// against the store-backed path too: a server restarted on the same
// store directory must keep producing library-identical bytes with zero
// additional sweeps.
func TestDifferentialMatchesDirectLibraryAfterRestart(t *testing.T) {
	corpus := diffCorpus()
	dir := t.TempDir()

	_, ts1 := newStoreServer(t, dir, Config{Workers: 4})
	first := runDiffCorpus(t, corpus, 0, ts1.URL)

	_, ts2 := newStoreServer(t, dir, Config{Workers: 4})
	second := runDiffCorpus(t, corpus, 0, ts2.URL)
	for i, c := range corpus {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("%s: restarted server differs from the original server", c.name)
		}
		if c.direct != nil {
			if want := c.direct(t); !bytes.Equal(second[i], want) {
				t.Errorf("%s: restarted server differs from the direct library path", c.name)
			}
		}
	}
	// The restarted server preloaded every model-backed entry: the only
	// sweeps it may run are for endpoints that never touch the store
	// (dynpart and balance measure per-request by design).
	snap := getStats(t, ts2.URL)
	if snap.StoreLoaded == 0 {
		t.Error("restarted server preloaded nothing from the shared store")
	}
	if snap.StoreHits+snap.CacheHits == 0 {
		t.Error("restarted server answered the corpus without store or cache hits")
	}
}
