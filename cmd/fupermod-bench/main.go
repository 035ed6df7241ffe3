// Command fupermod-bench measures a computation kernel over a grid of
// problem sizes and writes the resulting points file — the first step of
// the FuPerMod tool chain (benchmark → model → partition).
//
// Two kernel families are available: the real pure-Go GEMM kernel
// (-kernel gemm, executed on this machine's CPU) and virtual kernels backed
// by the synthetic device presets (-kernel virtual -device <preset>), which
// reproduce the paper's heterogeneous hardware deterministically.
//
// With -machine, every device of a machine file is benchmarked instead:
// devices sharing a node run under the synchronized group benchmark (so
// socket cores observe their contention), and one points file per device
// is written into -outdir.
//
// Usage:
//
//	fupermod-bench -kernel virtual -device netlib-blas -lo 16 -hi 5000 -n 40 -o netlib.points
//	fupermod-bench -kernel gemm -b 32 -lo 4 -hi 256 -n 10 -o local-gemm.points
//	fupermod-bench -machine examples/machines/two-node.machine -outdir points/
//
// With -store-dir, virtual sweeps go through the same on-disk model store
// fupermod-serve uses: a sweep already present under the key (device, seed,
// noise, grid, precision) is reused instead of re-measured, and fresh sweeps
// are spilled for the next run — so bench and a server pointed at one
// directory share a warm measurement database. Adding -transfer warm-starts
// a cold key from the store's nearest-fingerprint donor curve: a few probes
// plus active sampling replace the full sweep, the synthesized points are
// spilled with transfer provenance, and the run reports probes-used versus
// the full grid. When no stored curve matches, the run falls back to the
// ordinary full sweep.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fupermod/internal/bench"
	"fupermod/internal/comm"
	"fupermod/internal/config"
	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/model"
	"fupermod/internal/platform"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fupermod-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fupermod-bench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		kernelKind = fs.String("kernel", "virtual", "kernel family: virtual | gemm | jacobi")
		device     = fs.String("device", "netlib-blas", "device preset for virtual kernels (see -help-devices)")
		blockB     = fs.Int("b", 32, "blocking factor of the real gemm kernel")
		jacobiN    = fs.Int("jacobi-n", 2048, "system size of the real jacobi kernel")
		lo         = fs.Int("lo", 16, "smallest problem size in computation units")
		hi         = fs.Int("hi", 5000, "largest problem size in computation units")
		n          = fs.Int("n", 30, "number of sizes (geometric grid)")
		seed       = fs.Int64("seed", 1, "noise seed for virtual kernels")
		noise      = fs.Float64("noise", 0.02, "relative measurement noise of virtual kernels (0 disables)")
		out        = fs.String("o", "", "output points file (default stdout)")
		minReps    = fs.Int("min-reps", 3, "minimum repetitions per point")
		maxReps    = fs.Int("max-reps", 15, "maximum repetitions per point")
		relErr     = fs.Float64("rel-err", 0.03, "target relative confidence-interval half-width")
		workers    = fs.Int("workers", 0, "concurrent size-point measurements (0 = GOMAXPROCS); use 1 for real kernels so measurements do not contend; a noisy virtual kernel (-noise > 0) is always swept serially, so its points are reproducible")
		helpDev    = fs.Bool("help-devices", false, "list device presets and exit")
		machine    = fs.String("machine", "", "benchmark every device of this machine file (group-synchronized per node)")
		outDir     = fs.String("outdir", "points", "output directory for -machine mode")
		storeDir   = fs.String("store-dir", "", "model store directory shared with fupermod-serve: reuse a stored sweep, spill fresh ones")
		doTransfer = fs.Bool("transfer", false, "warm-start a cold store key from the store's nearest-fingerprint donor curve instead of a full sweep (requires -store-dir)")
		trProbes   = fs.Int("transfer-probes", transfer.DefaultProbes, "initial probe count per transfer attempt")
		trBudget   = fs.Int("transfer-budget", 0, "benchmark-call budget per transfer (0 = a quarter of the grid)")
		trTol      = fs.Float64("transfer-tol", transfer.DefaultTol, "convergence tolerance on donor/interpolant disagreement")
		perf       = fs.Bool("perf", false, "run the tracked perf suite and write a BENCH_<n>.json snapshot to -o (default stdout)")
		diffMode   = fs.Bool("diff", false, "with -perf: diff two snapshot files (positional: OLD.json NEW.json), non-zero exit on regression")
		trendMode  = fs.Bool("trend", false, "with -perf: tabulate per-benchmark ns/op across snapshot files (positional: BENCH_1.json BENCH_2.json ...)")
		benchtime  = fs.String("benchtime", "", "with -perf: time per benchmark in -test.benchtime syntax, e.g. 1x or 100ms (default 1s)")
		threshold  = fs.Float64("threshold", 1.30, "with -perf -diff: ratio past which a slowdown is a regression")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Transfer options are validated unconditionally: a non-positive probe
	// count or tolerance is a typo whichever mode runs.
	if *trProbes <= 0 {
		return fmt.Errorf("-transfer-probes must be positive, got %d", *trProbes)
	}
	if *trBudget < 0 {
		return fmt.Errorf("-transfer-budget must be non-negative (0 = a quarter of the grid), got %d", *trBudget)
	}
	if *trTol <= 0 {
		return fmt.Errorf("-transfer-tol must be positive, got %g", *trTol)
	}
	if *doTransfer && *storeDir == "" {
		return errors.New("-transfer requires -store-dir (the store is the donor pool)")
	}
	if *doTransfer && *machine != "" {
		return errors.New("-transfer is incompatible with -machine (group benchmarks do not use the store)")
	}
	if *diffMode && *trendMode {
		return errors.New("-diff and -trend are mutually exclusive")
	}
	if *diffMode {
		if !*perf {
			return errors.New("-diff requires -perf")
		}
		return runDiff(fs.Args(), *threshold, stdout)
	}
	if *trendMode {
		if !*perf {
			return errors.New("-trend requires -perf")
		}
		return runTrend(fs.Args(), stdout)
	}
	if *perf {
		return runPerf(*out, *benchtime, stdout)
	}
	if *helpDev {
		for _, name := range platform.PresetNames() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	prec0 := core.Precision{
		MinReps:    *minReps,
		MaxReps:    *maxReps,
		Confidence: 0.95,
		RelErr:     *relErr,
		MaxSeconds: 300,
	}
	if *machine != "" {
		return benchMachine(*machine, *outDir, *lo, *hi, *n, *seed, *noise, prec0)
	}

	var (
		k        core.Kernel
		devName  string
		err      error
		mkKernel func() (core.Kernel, error) // fresh virtual kernel per call
	)
	switch *kernelKind {
	case "virtual":
		dev, perr := platform.Preset(*device)
		if perr != nil {
			return perr
		}
		cfg := platform.Quiet
		if *noise > 0 {
			cfg = platform.NoiseConfig{Rel: *noise, OutlierP: 0.02, OutlierScale: 0.5}
		}
		// Each kernel gets its own meter: the noise meter draws
		// perturbations in measurement order, so transfer probes run on a
		// throwaway kernel — a fallback full sweep on the pristine one is
		// then byte-identical to a run without -transfer.
		mkKernel = func() (core.Kernel, error) {
			return kernels.NewVirtual("gemm-b128", platform.NewMeter(dev, cfg, *seed), 2*128*128*128)
		}
		k, err = mkKernel()
		devName = dev.Name()
	case "gemm":
		k, err = kernels.NewGEMM(*blockB)
		devName = "local-cpu"
	case "jacobi":
		k, err = kernels.NewJacobi(*jacobiN)
		devName = "local-cpu"
	default:
		return fmt.Errorf("unknown kernel family %q", *kernelKind)
	}
	if err != nil {
		return err
	}

	prec := prec0
	sizes := core.LogSizes(*lo, *hi, *n)
	if len(sizes) == 0 {
		return fmt.Errorf("invalid size grid lo=%d hi=%d n=%d", *lo, *hi, *n)
	}

	// Virtual sweeps are deterministic in (device, seed, noise, grid,
	// precision), so they can round-trip through the serve-side model store.
	// Real kernels time this machine — their numbers are not portable store
	// entries.
	var store *modelstore.Store
	var storeKey modelstore.Key
	if *storeDir != "" {
		if *kernelKind != "virtual" {
			return fmt.Errorf("-store-dir applies to virtual kernels only (real %s timings are machine-specific)", *kernelKind)
		}
		if store, err = modelstore.Open(*storeDir); err != nil {
			return err
		}
		storeKey = modelstore.Key{
			Tenant: "default",
			Device: *device,
			Seed:   *seed,
			Noise:  *noise,
			Lo:     *lo, Hi: *hi, N: *n,
			Prec: modelstore.EncodePrecision(prec),
		}
	}

	var pts []core.Point
	fromStore := false
	if store != nil {
		ent, ok, gerr := store.Get(storeKey)
		switch {
		case gerr != nil:
			// Corrupt entry: re-measure; the Put below heals the file.
			fmt.Fprintf(os.Stderr, "store: %v (re-measuring)\n", gerr)
		case ok:
			pts = ent.Points
			fromStore = true
			fmt.Fprintf(os.Stderr, "store: reusing %d points from %s\n", len(pts), store.Path(storeKey))
		}
	}
	transferred := false
	if !fromStore && *doTransfer {
		prober := func() (transfer.Prober, error) {
			pk, err := mkKernel()
			if err != nil {
				return nil, err
			}
			return core.NewProber(pk, prec), nil
		}
		cfg := transfer.Config{Probes: *trProbes, Budget: *trBudget, Tol: *trTol}
		res, terr := store.Acquire(storeKey, sizes, prober, cfg)
		if terr != nil {
			return terr
		}
		if res.Fallback == "" {
			pts = res.Points
			transferred = true
			prov := modelstore.Provenance(res, len(sizes))
			if err := store.PutTransfer(storeKey, k.Name(), pts, prov); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "transfer: %s — %d of %d grid sizes benchmarked, full sweep avoided\n",
				prov, res.Measured, len(sizes))
		} else {
			fmt.Fprintf(os.Stderr, "transfer: falling back to the full sweep: %s\n", res.Fallback)
		}
	}
	if !fromStore && !transferred {
		if *kernelKind == "virtual" && *noise > 0 {
			// The noise meter draws perturbations in measurement order, so
			// only a serial sweep is reproducible — and equal to what the
			// service and the store audit measure for the same key.
			pts, err = core.Sweep(k, sizes, prec)
		} else {
			pts, err = core.SweepParallel(k, sizes, prec, *workers)
		}
		if err != nil {
			return err
		}
		if store != nil {
			if err := store.Put(storeKey, k.Name(), pts); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "store: spilled %d points to %s\n", len(pts), store.Path(storeKey))
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := model.WritePoints(w, model.PointFile{
		Kernel: k.Name(),
		Device: devName,
		Points: pts,
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "measured %d points (%.3gs of kernel time)\n",
		len(pts), core.BenchmarkCost(pts))
	return nil
}

// benchMachine benchmarks every device of a machine file, node by node
// with the synchronized group benchmark, and writes one points file per
// device into outDir.
func benchMachine(path, outDir string, lo, hi, n int, seed int64, noise float64, prec core.Precision) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	m, err := config.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	devs := m.Devices()
	platform.ActivateShared(devs)
	cfg := platform.Quiet
	if noise > 0 {
		cfg = platform.NoiseConfig{Rel: noise, OutlierP: 0.02, OutlierScale: 0.5}
	}
	ks, err := kernels.VirtualSet(devs, cfg, 2*128*128*128, seed)
	if err != nil {
		return err
	}
	sizes := core.LogSizes(lo, hi, n)
	if len(sizes) == 0 {
		return fmt.Errorf("invalid size grid lo=%d hi=%d n=%d", lo, hi, n)
	}
	nodeOf := m.NodeOf()
	points := make([][]core.Point, len(devs))
	for _, d := range sizes {
		for node := range m.Nodes {
			var nodeKernels []core.Kernel
			var nodeRanks []int
			for r := range devs {
				if nodeOf[r] == node {
					nodeKernels = append(nodeKernels, ks[r])
					nodeRanks = append(nodeRanks, r)
				}
			}
			if len(nodeKernels) == 0 {
				continue
			}
			ds := make([]int, len(nodeKernels))
			for i := range ds {
				ds[i] = d
			}
			pts, err := bench.Group(nodeKernels, ds, prec, comm.SharedMemory)
			if err != nil {
				return fmt.Errorf("node %s at d=%d: %w", m.Nodes[node].Name, d, err)
			}
			for i, pt := range pts {
				points[nodeRanks[i]] = append(points[nodeRanks[i]], pt)
			}
		}
	}
	for r, dev := range devs {
		name := strings.ReplaceAll(dev.Name(), "/", "-")
		out := filepath.Join(outDir, name+".points")
		g, err := os.Create(out)
		if err != nil {
			return err
		}
		err = model.WritePoints(g, model.PointFile{
			Kernel: "gemm-b128",
			Device: dev.Name(),
			Points: points[r],
		})
		if cerr := g.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d points -> %s\n", dev.Name(), len(points[r]), out)
	}
	return nil
}
