package main

// The -perf mode: run the repository's tracked benchmark suite and write a
// schema-versioned BENCH_<n>.json snapshot, or diff two snapshots with a
// regression threshold. The micro-benchmarks live in internal/bench
// (PerfSuite); this file appends the macro-benchmarks that regenerate
// paper artefacts, which must be registered here because
// internal/experiments itself imports internal/bench.
//
//	fupermod-bench -perf -o BENCH_7.json             # full 1s/benchmark run
//	fupermod-bench -perf -benchtime 1x               # CI smoke: one iteration each
//	fupermod-bench -perf -diff BENCH_6.json BENCH_7.json -threshold 1.3
//	fupermod-bench -perf -trend BENCH_*.json         # cumulative ns/op table

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fupermod/internal/bench"
	"fupermod/internal/core"
	"fupermod/internal/experiments"
	"fupermod/internal/kernels"
	"fupermod/internal/platform"
	"fupermod/internal/service"
	"fupermod/internal/trace"
)

// perfSuite is the full tracked suite: the hot-path micro-benchmarks plus
// the artefact-regeneration macro-benchmarks.
func perfSuite() []bench.PerfBenchmark {
	return append(bench.PerfSuite(),
		bench.PerfBenchmark{Name: "experiments/fig2a", F: benchGenerator(experiments.Fig2a)},
		bench.PerfBenchmark{Name: "experiments/fig3", F: benchGenerator(experiments.Fig3)},
		bench.PerfBenchmark{Name: "experiments/e1", F: benchGenerator(experiments.E1)},
		bench.PerfBenchmark{Name: "sweep/parallel-64", F: benchSweepParallel},
		bench.PerfBenchmark{Name: "sweep/noisy-40", F: benchSweepNoisy},
	)
}

// benchGenerator adapts an experiment generator (regenerate the full table
// per iteration) into a benchmark body — the same shape as the
// BenchmarkFig*/BenchmarkE* wrappers in the repo-root bench_test.go.
func benchGenerator(g experiments.Generator) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t, err := g()
			if err != nil {
				b.Fatal(err)
			}
			if t.NumRows() == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// benchSweepParallel measures the pool-backed parallel sweep over a 64-size
// grid on a noiseless virtual kernel — what the -workers flag buys.
func benchSweepParallel(b *testing.B) {
	meter := platform.NewMeter(platform.FastCore("f"), platform.Quiet, 1)
	k, err := kernels.NewVirtual("gemm-b128", meter, 2*128*128*128)
	if err != nil {
		b.Fatal(err)
	}
	sizes := core.LogSizes(16, 60000, 64)
	prec := core.Precision{MinReps: 3, MaxReps: 10, Confidence: 0.95, RelErr: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SweepParallel(k, sizes, prec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepNoisy measures the sweep a cold-fill cache miss runs: a serial
// sweep of a fresh 10%-noise virtual kernel over a 40-size grid at the
// service's stopping rule, so most points repeat the confidence test
// several times. Each iteration re-seeds the kernel, so every op measures
// the same noise stream.
func benchSweepNoisy(b *testing.B) {
	sizes := core.LogSizes(16, 60000, 40)
	noise := platform.NoiseConfig{Rel: 0.1, OutlierP: 0.02, OutlierScale: 0.5}
	for i := 0; i < b.N; i++ {
		meter := platform.NewMeter(platform.FastCore("f"), noise, 1)
		k, err := kernels.NewVirtual("gemm-b128", meter, service.GEMMBlockFlops)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Sweep(k, sizes, service.DefaultSweepPrecision); err != nil {
			b.Fatal(err)
		}
	}
}

// runPerf measures the suite and writes the snapshot to out ("" = stdout).
// Progress goes to stderr so a redirected stdout stays valid JSON.
func runPerf(out, benchtime string, stdout io.Writer) error {
	snap, err := bench.RunPerf(perfSuite(), benchtime, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		return err
	}
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := snap.Encode(w); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d benchmarks to %s\n", len(snap.Benchmarks), out)
	}
	return nil
}

func loadSnapshot(path string) (*bench.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := bench.DecodeSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runTrend tabulates every tracked benchmark's ns/op across a sequence of
// snapshot files in argument order — the committed BENCH_<n>.json series —
// with a final column of last-over-first ratios. "-" marks snapshots a
// benchmark is absent from and ratios over fewer than two tracked points.
func runTrend(args []string, stdout io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: fupermod-bench -perf -trend BENCH_1.json BENCH_2.json ... (got %d positional arguments)", len(args))
	}
	snaps := make([]*bench.Snapshot, len(args))
	cols := []string{"benchmark"}
	for i, path := range args {
		s, err := loadSnapshot(path)
		if err != nil {
			return err
		}
		snaps[i] = s
		cols = append(cols, filepath.Base(path))
	}
	rows, err := bench.Trend(snaps)
	if err != nil {
		return err
	}
	t := trace.NewTable("Performance trend (ns/op)", append(cols, "ratio")...)
	t.Note = "ratio = last tracked ns/op over first tracked; below 1.00x got faster"
	for _, r := range rows {
		cells := []any{r.Name}
		for _, ns := range r.NsPerOp {
			if math.IsNaN(ns) {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.4g", ns))
			}
		}
		if math.IsNaN(r.Ratio) {
			cells = append(cells, "-")
		} else {
			cells = append(cells, fmt.Sprintf("%.2fx", r.Ratio))
		}
		t.AddRow(cells...)
	}
	_, err = t.WriteTo(stdout)
	return err
}

// runDiff compares two snapshot files and fails (non-zero exit through
// main) when any tracked benchmark regressed past the threshold ratio.
func runDiff(args []string, threshold float64, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: fupermod-bench -perf -diff OLD.json NEW.json (got %d positional arguments)", len(args))
	}
	oldSnap, err := loadSnapshot(args[0])
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(args[1])
	if err != nil {
		return err
	}
	if oldSnap.Host != newSnap.Host {
		fmt.Fprintf(stdout, "warning: host fingerprints differ (%+v vs %+v); numbers are not directly comparable\n",
			oldSnap.Host, newSnap.Host)
	}
	regs, err := bench.Diff(oldSnap, newSnap, threshold)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "no regressions past %.2fx across %d tracked benchmarks\n",
			threshold, len(oldSnap.Benchmarks))
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(stdout, r)
	}
	return fmt.Errorf("%d regression(s) past the %.2fx threshold", len(regs), threshold)
}
