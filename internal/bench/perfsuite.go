package bench

// The tracked micro-benchmark suite behind `fupermod-bench -perf`: one
// benchmark per true hot path. A path has a `-ref` twin only while its
// reference is production code too (the store decoder's classifier and
// the full-read donor search); the reference of any other kept fast path
// lives in its package's tests, beside the equivalence test that pins it.
//
// Names are stable snapshot keys: renaming one is a schema-level act that
// breaks trajectory diffs, so extend, don't rename. A row that leaves the
// suite on purpose is named in retired, so Diff does not report it missing.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/matpart"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
	"fupermod/internal/service"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
	"fupermod/internal/verify"
)

// sink defeats dead-code elimination of benchmark bodies.
var sink float64

// PerfSuite returns the tracked micro-benchmarks of the repo's hot paths.
// cmd/fupermod-bench appends the experiment macro-benchmarks (which live
// above this package in the import graph) before running.
func PerfSuite() []PerfBenchmark {
	return []PerfBenchmark{
		{Name: "verify/oracle-dp", F: benchOracle},
		{Name: "model/piecewise-eval", F: benchPiecewiseEval},
		{Name: "model/fit", F: benchModelFit},
		{Name: "model/write-points", F: benchWritePoints},
		{Name: "service/json-roundtrip", F: benchJSONRoundtrip},
		{Name: "service/batch-key", F: benchBatchKey},
		{Name: "modelstore/decode", F: benchStoreDecode(modelstore.Decode)},
		{Name: "modelstore/decode-ref", F: benchStoreDecode(modelstore.DecodeRef)},
		{Name: "modelstore/load", F: benchStoreLoad},
		{Name: "transfer/acquire", F: benchTransferAcquire},
		{Name: "transfer/similar", F: benchTransferSimilar},
		{Name: "modelstore/donors", F: benchStoreDonors(indexedDonors)},
		{Name: "modelstore/donors-ref", F: benchStoreDonors(fullReadDonors)},
		{Name: "modelstore/put", F: benchStorePut},
		{Name: "matpart/oracle-dp", F: benchMatpartOracle},
		{Name: "matpart/fpmgrid", F: benchMatpartFPMGrid},
	}
}

// retired names every row that left PerfSuite on purpose. Each was the
// `-ref` twin of a fast path: either the fast path went and its reference
// became the one implementation, or the reference moved into its
// package's tests. Diff does not report these rows missing.
var retired = []string{
	"service/json-roundtrip-ref", // the pooled JSON codec went
	"verify/oracle-dp-ref",       // the oracle's pooled DP went
	"model/piecewise-eval-ref",   // interp.Linear's segment hint went
	"model/write-points-ref",     // WritePointsRef moved into model's tests
	"modelstore/load-ref",        // LoadRef moved into modelstore's tests
}

// matpartAreas builds the 2D oracle's input: 48 heterogeneous processes
// (the differential battery's headline size), areas from the generated
// speed shapes with a few idle processes, deterministic.
func matpartAreas() []float64 {
	procs := verify.NewGen(7).Platform(48, verify.Shapes()...)
	areas := make([]float64, len(procs))
	for i, p := range procs {
		if i%13 == 5 {
			continue // idle process
		}
		areas[i] = p.Speed(20000)
	}
	return areas
}

// benchMatpartOracle tracks the DP 2D oracle at the scale the enumerator
// cannot reach — the O(n²·c) prefix DP plus canonical rescoring.
func benchMatpartOracle(b *testing.B) {
	areas := matpartAreas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := matpart.OraclePerimeter(areas)
		if err != nil {
			b.Fatal(err)
		}
		sink += opt
	}
}

// benchMatpartFPMGrid tracks the full model-driven 2D pipeline: 1D
// partition of the block grid, column arrangement, discretisation and
// row refinement.
func benchMatpartFPMGrid(b *testing.B) {
	procs := verify.NewGen(9).Platform(8, verify.MonotoneShapes()...)
	models := make([]core.Model, len(procs))
	for i, p := range procs {
		models[i] = verify.NewFuncModel(p.Name, p.Time)
	}
	algo, err := partition.ByName("geometric")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rects, _, err := matpart.FPMGrid(models, 64, algo, 128)
		if err != nil {
			b.Fatal(err)
		}
		sink += float64(rects[0].Blocks())
	}
}

// oracleModels builds the DP oracle's input: 8 heterogeneous monotone
// processes from the verification generators, as exact FuncModels.
func oracleModels() []core.Model {
	procs := verify.NewGen(1).Platform(8, verify.MonotoneShapes()...)
	models := make([]core.Model, len(procs))
	for i, p := range procs {
		models[i] = verify.NewFuncModel(p.Name, p.Time)
	}
	return models
}

const oracleD = 4000

func benchOracle(b *testing.B) {
	models := oracleModels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, opt, err := verify.Oracle(models, oracleD)
		if err != nil {
			b.Fatal(err)
		}
		sink += opt
	}
}

// evalQueries reproduces the solvers' access pattern: repeated bisection
// searches over the model's domain, each converging geometrically on a
// different target.
func evalQueries(lo, hi float64) []float64 {
	var xs []float64
	for k := 0; k < 32; k++ {
		target := lo + (hi-lo)*float64(k*k%97)/97.0
		a, b := lo, hi
		for step := 0; step < 24; step++ {
			mid := (a + b) / 2
			xs = append(xs, mid)
			if mid < target {
				a = mid
			} else {
				b = mid
			}
		}
	}
	return xs
}

func benchPiecewiseEval(b *testing.B) {
	dev := platform.NetlibBLASCore()
	m := model.NewPiecewise()
	for _, d := range core.LogSizes(16, 60000, 60) {
		if err := m.Update(core.Point{D: d, Time: dev.BaseTime(float64(d)), Reps: 1}); err != nil {
			b.Fatal(err)
		}
	}
	xs := evalQueries(16, 60000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			t, err := m.Time(x)
			if err != nil {
				b.Fatal(err)
			}
			sink += t
		}
	}
}

// benchModelFit tracks fitting a piecewise model to a finished 40-point
// sweep through core.UpdateAll, as every service fill, preload and CLI
// build does. It has no -ref twin: the one-Update-per-point fit it
// replaced is not production code, and BenchmarkPiecewiseFit in
// internal/model times the two side by side.
func benchModelFit(b *testing.B) {
	dev := platform.NetlibBLASCore()
	sizes := core.LogSizes(16, 60000, 40)
	pts := make([]core.Point, len(sizes))
	for i, d := range sizes {
		pts[i] = core.Point{D: d, Time: dev.BaseTime(float64(d)), Reps: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := model.NewPiecewise()
		if err := core.UpdateAll(m, pts); err != nil {
			b.Fatal(err)
		}
		t, err := m.Time(1000)
		if err != nil {
			b.Fatal(err)
		}
		sink += t
	}
}

// perfPoints builds n synthetic valid measurement points.
func perfPoints(n int) []core.Point {
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = core.Point{
			D:    16 + i*7,
			Time: 1e-4 * float64(i+1) * 1.000173,
			Reps: 3 + i%5,
			CI:   1e-6 * float64(i%11),
		}
	}
	return pts
}

func benchWritePoints(b *testing.B) {
	pf := model.PointFile{Kernel: "gemm-b128", Device: "netlib-blas", Points: perfPoints(200)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.WritePoints(io.Discard, pf); err != nil {
			b.Fatal(err)
		}
	}
}

// perfPartitionRequest is a representative service request: 8 devices,
// comm-aware, the shape a busy multi-tenant server decodes constantly.
func perfPartitionRequest() service.PartitionRequest {
	devs := make([]service.DeviceSpec, 8)
	for i := range devs {
		devs[i] = service.DeviceSpec{Preset: "netlib-blas", Seed: int64(i + 1), Noise: 0.02}
	}
	return service.PartitionRequest{
		Tenant:    "tenant-a",
		Devices:   devs,
		Grid:      service.Grid{Lo: 16, Hi: 60000, N: 40},
		Model:     "piecewise",
		Algorithm: "geometric",
		D:         100000,
	}
}

func perfPartitionResponse() service.PartitionResponse {
	parts := make([]service.PartPayload, 8)
	for i := range parts {
		parts[i] = service.PartPayload{Device: "netlib-blas", Units: 12500 + i, TimeS: 0.125 + float64(i)*1e-3}
	}
	return service.PartitionResponse{
		Algorithm: "geometric", Model: "piecewise", D: 100000,
		Parts: parts, MakespanS: 0.131, Imbalance: 1.05,
	}
}

func benchJSONRoundtrip(b *testing.B) {
	var reqBuf bytes.Buffer
	if err := service.EncodeJSON(&reqBuf, perfPartitionRequest()); err != nil {
		b.Fatal(err)
	}
	reqBytes := reqBuf.Bytes()
	resp := perfPartitionResponse()
	rd := bytes.NewReader(reqBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(reqBytes)
		var req service.PartitionRequest
		if err := service.DecodeJSON(rd, &req); err != nil {
			b.Fatal(err)
		}
		if err := service.EncodeJSON(io.Discard, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatchKey(b *testing.B) {
	keys := make([]service.ModelKey, 8)
	for i := range keys {
		keys[i] = service.ModelKey{
			Device: "netlib-blas", Seed: int64(i + 1), Noise: 0.02,
			Lo: 16, Hi: 60000, N: 40, Model: "piecewise",
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := service.BatchKey("part", "tenant-a", keys, "geometric", 100000, "")
		sink += float64(len(k))
	}
}

// storeEntry materialises one representative store file (300 points) and
// returns its path and bytes.
func storeEntry(b *testing.B, dir string) (string, []byte) {
	b.Helper()
	st, err := modelstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	key := modelstore.Key{
		Tenant: "default", Device: "netlib-blas", Seed: 1, Noise: 0.02,
		Lo: 16, Hi: 60000, N: 300,
		Prec: modelstore.EncodePrecision(core.Precision{
			MinReps: 3, MaxReps: 8, Confidence: 0.95, RelErr: 0.05,
		}),
	}
	if err := st.Put(key, "gemm-b128", perfPoints(300)); err != nil {
		b.Fatal(err)
	}
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, data
}

func benchStoreDecode(decode func(string, []byte) (modelstore.Entry, error)) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "fupermod-perf-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path, data := storeEntry(b, dir)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := decode(path, data)
			if err != nil {
				b.Fatal(err)
			}
			sink += float64(len(e.Points))
		}
	}
}

// transferProcs generates n heterogeneous monotone processes — the donor
// curves of the transfer benchmarks.
func transferProcs(n int) []verify.Proc {
	return verify.NewGen(7).Platform(n, verify.MonotoneShapes()...)
}

// transferDonorPool samples each process over the standard 40-size grid.
func transferDonorPool(procs []verify.Proc) []transfer.Donor {
	sizes := core.LogSizes(16, 60000, 40)
	donors := make([]transfer.Donor, len(procs))
	for i, p := range procs {
		pts := make([]core.Point, len(sizes))
		for j, d := range sizes {
			pts[j] = core.Point{D: d, Time: math.Max(p.Time(float64(d)), 1e-12), Reps: 1}
		}
		donors[i] = transfer.Donor{ID: p.Name, Points: pts}
	}
	return donors
}

// benchTransferAcquire measures the full warm-start probe loop — initial
// probes, candidate ranking and gating, active sampling, synthesis — over
// an 8-donor pool with a guaranteed match (the target is donor 0 at half
// speed), the cold-key path a transfer-enabled server pays per tenant.
func benchTransferAcquire(b *testing.B) {
	sizes := core.LogSizes(16, 60000, 40)
	procs := transferProcs(8)
	src := transfer.Pool(transferDonorPool(procs), 0)
	prober := func(d int) (core.Point, error) {
		return core.Point{D: d, Time: math.Max(procs[0].Time(float64(d))*2, 1e-12), Reps: 1}, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transfer.Acquire(sizes, prober, src, transfer.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Fallback != "" {
			b.Fatalf("unexpected fallback: %s", res.Fallback)
		}
		sink += res.Scale
	}
}

// benchTransferSimilar measures the curve-similarity search: fingerprint
// the probes and rank a 32-curve donor pool by shape distance.
func benchTransferSimilar(b *testing.B) {
	donors := transferDonorPool(transferProcs(32))
	full := donors[5].Points
	probes := []core.Point{full[0], full[13], full[26], full[39]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := transfer.Rank(donors, probes, 4)
		if len(cands) == 0 {
			b.Fatal("similarity search returned no candidates")
		}
		sink += cands[0].Distance
	}
}

// donorSearch is one transfer fill's donor search: the top candidates for
// a cold key's probes.
type donorSearch func(st *modelstore.Store, cold modelstore.Key, probes []core.Point) ([]transfer.Candidate, error)

// indexedDonors searches the store's index: refresh, rank by cached
// fingerprint, read the top candidates' points.
func indexedDonors(st *modelstore.Store, cold modelstore.Key, probes []core.Point) ([]transfer.Candidate, error) {
	donors, err := st.Donors(cold)
	if err != nil {
		return nil, err
	}
	return donors.Rank(probes, transfer.DefaultCandidates), nil
}

// fullReadDonors is the reference search: decode every file, then
// fingerprint and rank every curve.
func fullReadDonors(st *modelstore.Store, cold modelstore.Key, probes []core.Point) ([]transfer.Candidate, error) {
	pool, err := st.DonorPool(cold)
	if err != nil {
		return nil, err
	}
	return transfer.Rank(pool, probes, transfer.DefaultCandidates), nil
}

// donorStoreEntries is the populated store both donor searches run on: a
// warm fleet's worth of 40-size full sweeps.
const donorStoreEntries = 1000

// benchStoreDonors measures the donor search a transfer fill makes, in
// the steady state: the first search (which builds the index) runs before
// the timer starts.
func benchStoreDonors(search donorSearch) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "fupermod-perf-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := modelstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		prec := modelstore.EncodePrecision(core.Precision{MinReps: 1, MaxReps: 1, Confidence: 0.95, RelErr: 0.05})
		key := func(device string) modelstore.Key {
			return modelstore.Key{Tenant: "default", Device: device, Seed: 1,
				Lo: 16, Hi: 60000, N: 40, Prec: prec}
		}
		donors := transferDonorPool(transferProcs(64))
		for i := 0; i < donorStoreEntries; i++ {
			pts := append([]core.Point(nil), donors[i%len(donors)].Points...)
			for j := range pts {
				pts[j].Time *= 1 + float64(i)/donorStoreEntries
			}
			if err := st.Put(key(fmt.Sprintf("dev-%d", i)), "gemm-b128", pts); err != nil {
				b.Fatal(err)
			}
		}
		full := donors[5].Points
		probes := []core.Point{full[0], full[13], full[26], full[39]}
		cold := key("cold")
		if _, err := search(st, cold, probes); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands, err := search(st, cold, probes)
			if err != nil {
				b.Fatal(err)
			}
			if len(cands) != transfer.DefaultCandidates {
				b.Fatalf("donor search returned %d candidates", len(cands))
			}
			sink += cands[0].Distance
		}
	}
}

// putStoreEntries is the populated store a tracked spill lands in.
const putStoreEntries = 1000

// benchStorePut measures one spill — a Put of a 40-point entry, a new key
// each time — into a store already holding putStoreEntries entries, with
// its index built, as a service fill's spill finds it after the fill's
// own disk lookup. There is no -ref twin: the temp-file-and-rename spill
// it replaced is gone.
func benchStorePut(b *testing.B) {
	dir, err := os.MkdirTemp("", "fupermod-perf-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := modelstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	prec := modelstore.EncodePrecision(core.Precision{MinReps: 3, MaxReps: 8, Confidence: 0.95, RelErr: 0.05})
	key := func(i int) modelstore.Key {
		return modelstore.Key{Tenant: "default", Device: fmt.Sprintf("dev-%d", i), Seed: 1, Noise: 0.02,
			Lo: 16, Hi: 60000, N: 40, Prec: prec}
	}
	pts := perfPoints(40)
	for i := 0; i < putStoreEntries; i++ {
		if err := st.Put(key(i), "gemm-b128", pts); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.Stats(); err != nil {
		b.Fatal(err)
	}
	keys := make([]modelstore.Key, b.N)
	for i := range keys {
		keys[i] = key(putStoreEntries + i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(keys[i], "gemm-b128", pts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStoreLoad(b *testing.B) {
	dir, err := os.MkdirTemp("", "fupermod-perf-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := modelstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	prec := modelstore.EncodePrecision(core.Precision{
		MinReps: 3, MaxReps: 8, Confidence: 0.95, RelErr: 0.05,
	})
	for i := 0; i < 12; i++ {
		key := modelstore.Key{
			Tenant: "default", Device: fmt.Sprintf("dev-%d", i), Seed: 1, Noise: 0.02,
			Lo: 16, Hi: 60000, N: 100, Prec: prec,
		}
		if err := st.Put(key, "gemm-b128", perfPoints(100)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, corrupt, err := st.Load()
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != 12 || len(corrupt) != 0 {
			b.Fatalf("load: %d entries, %d corrupt", len(entries), len(corrupt))
		}
	}
}
