package bench

// This file is the continuous performance-trajectory subsystem: a
// schema-versioned snapshot of the repository's tracked micro-benchmarks
// (ns/op, allocs/op, B/op per benchmark, plus a host fingerprint and git
// revision), an encoder/decoder for the BENCH_<n>.json files committed at
// the repo root, and a threshold diff for regression gating. OMI4papps
// (arXiv:1001.1860) argues systematic measurement must precede
// optimization, and Stevens–Klöckner (arXiv:1904.09538) that performance
// models are only trustworthy while continuously validated against fresh
// measurements; the snapshot sequence applies both to this repo itself —
// every optimization PR records its before/after here, and the diff turns
// a silent slowdown into a failing exit code.
//
// A fast path stays in production only where a benchmarked workload runs
// it and it buys something measurable. The reference it is pinned to
// lives beside the equivalence test that reads it, and is a tracked
// `-ref` row only while production code calls it too. A row removed from
// the suite on purpose is declared in the retired list beside PerfSuite.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
)

// SnapshotSchema is the version of the BENCH_<n>.json format. Bump it when
// a field changes meaning; Diff refuses to compare across versions.
const SnapshotSchema = 1

// ErrSchemaMismatch reports a snapshot whose schema version this binary
// does not speak. It is distinct from a parse error so the CLI can issue a
// precise usage error.
var ErrSchemaMismatch = errors.New("bench: snapshot schema version mismatch")

// Metrics is one benchmark's measured cost.
type Metrics struct {
	// N is the number of iterations the measurement averaged over.
	N int `json:"n"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
}

// Host fingerprints the machine a snapshot was measured on. Numbers are
// only comparable between snapshots with equal fingerprints; Diff warns
// through its report when they differ.
type Host struct {
	OS   string `json:"os"`
	Arch string `json:"arch"`
	CPUs int    `json:"cpus"`
	Go   string `json:"go"`
}

// HostFingerprint describes the running machine.
func HostFingerprint() Host {
	return Host{OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU(), Go: runtime.Version()}
}

// GitRev returns the VCS revision stamped into the binary, or "unknown"
// when the build carries no VCS metadata (go test binaries, go run).
func GitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Snapshot is one point of the repository's performance trajectory: the
// BENCH_<n>.json files at the repo root are encoded Snapshots.
type Snapshot struct {
	Schema int    `json:"schema"`
	GitRev string `json:"git_rev"`
	Host   Host   `json:"host"`
	// Benchtime records the -benchtime the suite ran under ("" = the
	// testing default of 1s per benchmark).
	Benchtime  string             `json:"benchtime,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Encode writes the snapshot as indented JSON with sorted keys (Go
// serialises map keys sorted), newline-terminated — a stable, diff-
// friendly rendering for committed BENCH files.
func (s *Snapshot) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding snapshot: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// DecodeSnapshot parses and validates one snapshot. A snapshot of a
// different schema version returns ErrSchemaMismatch (wrapped); malformed
// JSON or structurally invalid snapshots return other errors.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("bench: malformed snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the structural invariants of a snapshot.
func (s *Snapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("%w: snapshot has schema %d, this binary speaks %d",
			ErrSchemaMismatch, s.Schema, SnapshotSchema)
	}
	if len(s.Benchmarks) == 0 {
		return errors.New("bench: snapshot has no benchmarks")
	}
	for name, m := range s.Benchmarks {
		if name == "" {
			return errors.New("bench: snapshot has an unnamed benchmark")
		}
		if m.N <= 0 {
			return fmt.Errorf("bench: benchmark %q ran %d iterations", name, m.N)
		}
		if m.NsPerOp < 0 || m.AllocsPerOp < 0 || m.BytesPerOp < 0 {
			return fmt.Errorf("bench: benchmark %q has negative metrics", name)
		}
	}
	return nil
}

// Regression is one benchmark that got worse past the diff threshold.
type Regression struct {
	Name   string
	Metric string // "ns/op" | "allocs/op" | "missing"
	Old    float64
	New    float64
	Ratio  float64
}

// String renders the regression on one line.
func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: tracked benchmark missing from new snapshot", r.Name)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx)", r.Name, r.Metric, r.Old, r.New, r.Ratio)
}

// Diff compares two snapshots benchmark by benchmark and reports every
// tracked benchmark of old that regressed in new past the threshold
// ratio: ns/op strictly by ratio, allocs/op by ratio with one alloc of
// absolute slack (a pooled path may pay a stray allocation when GC clears
// its pool mid-measurement). A benchmark present in old but absent from
// new is a regression — a dropped benchmark must be declared in the
// retired list, never an accident. Benchmarks only in new are ignored
// (adding coverage is not a regression). Snapshots of different schema
// versions refuse to diff.
func Diff(old, new *Snapshot, threshold float64) ([]Regression, error) {
	if threshold <= 1 {
		return nil, fmt.Errorf("bench: diff threshold %g must exceed 1", threshold)
	}
	if err := old.Validate(); err != nil {
		return nil, err
	}
	if err := new.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var regs []Regression
	for _, name := range names {
		o := old.Benchmarks[name]
		n, ok := new.Benchmarks[name]
		if !ok {
			if !slices.Contains(retired, name) {
				regs = append(regs, Regression{Name: name, Metric: "missing"})
			}
			continue
		}
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*threshold {
			regs = append(regs, Regression{
				Name: name, Metric: "ns/op",
				Old: o.NsPerOp, New: n.NsPerOp, Ratio: n.NsPerOp / o.NsPerOp,
			})
		}
		if float64(n.AllocsPerOp) > float64(o.AllocsPerOp)*threshold+1 {
			ratio := float64(n.AllocsPerOp+1) / float64(o.AllocsPerOp+1)
			regs = append(regs, Regression{
				Name: name, Metric: "allocs/op",
				Old: float64(o.AllocsPerOp), New: float64(n.AllocsPerOp), Ratio: ratio,
			})
		}
	}
	return regs, nil
}

// TrendRow is one benchmark's trajectory across a snapshot sequence.
type TrendRow struct {
	// Name is the benchmark's snapshot key.
	Name string
	// NsPerOp holds one entry per input snapshot, in input order; NaN
	// marks snapshots the benchmark is absent from (not yet tracked, or
	// since dropped).
	NsPerOp []float64
	// Ratio is last tracked ns/op over first tracked ns/op — below 1 the
	// benchmark got faster over the sequence, above 1 slower. NaN when the
	// benchmark was tracked fewer than twice or a tracked ns/op is zero.
	Ratio float64
}

// Trend lines up two or more snapshots — the committed BENCH_<n>.json
// sequence — into per-benchmark trajectories, sorted by name. Unlike Diff
// it gates nothing: it is the reading companion to the regression gate,
// answering "how did each hot path move across the PR sequence". The union
// of benchmark names is reported, so coverage added or dropped mid-sequence
// shows up as NaN runs rather than vanishing.
func Trend(snaps []*Snapshot) ([]TrendRow, error) {
	if len(snaps) < 2 {
		return nil, fmt.Errorf("bench: trend needs at least 2 snapshots, got %d", len(snaps))
	}
	names := make(map[string]bool)
	for i, s := range snaps {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("bench: trend snapshot %d: %w", i, err)
		}
		for name := range s.Benchmarks {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	rows := make([]TrendRow, 0, len(sorted))
	for _, name := range sorted {
		row := TrendRow{Name: name, NsPerOp: make([]float64, len(snaps)), Ratio: math.NaN()}
		first, last := math.NaN(), math.NaN()
		tracked := 0
		for i, s := range snaps {
			m, ok := s.Benchmarks[name]
			if !ok {
				row.NsPerOp[i] = math.NaN()
				continue
			}
			row.NsPerOp[i] = m.NsPerOp
			if tracked == 0 {
				first = m.NsPerOp
			}
			last = m.NsPerOp
			tracked++
		}
		if tracked >= 2 && first > 0 {
			row.Ratio = last / first
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PerfBenchmark is one tracked micro-benchmark of the perf suite.
type PerfBenchmark struct {
	// Name is the stable snapshot key, "area/benchmark[-ref]".
	Name string
	// F is a standard testing benchmark body.
	F func(b *testing.B)
}

// setBenchtime points the testing package's -test.benchtime at v (e.g.
// "1x", "100ms"), registering the testing flags first when running
// outside a test binary. It returns a restore function. Empty v keeps the
// current setting (1s per benchmark by default).
func setBenchtime(v string) (restore func(), err error) {
	if v == "" {
		return func() {}, nil
	}
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return nil, errors.New("bench: testing flags unavailable")
	}
	old := f.Value.String()
	if err := f.Value.Set(v); err != nil {
		return nil, fmt.Errorf("bench: invalid benchtime %q: %w", v, err)
	}
	return func() { f.Value.Set(old) }, nil
}

// RunPerf measures every benchmark of the suite with testing.Benchmark
// and assembles the snapshot. benchtime follows -test.benchtime syntax
// ("1x" runs each benchmark once — the CI smoke setting; "" keeps the 1s
// default). logf, when non-nil, receives one progress line per benchmark
// as it completes. Every benchmark is wrapped with b.ReportAllocs(), so
// allocation stats are recorded for the whole suite unconditionally.
func RunPerf(suite []PerfBenchmark, benchtime string, logf func(format string, args ...any)) (*Snapshot, error) {
	if len(suite) == 0 {
		return nil, errors.New("bench: empty perf suite")
	}
	seen := make(map[string]bool, len(suite))
	for _, pb := range suite {
		if pb.Name == "" || pb.F == nil {
			return nil, fmt.Errorf("bench: perf suite entry %q is incomplete", pb.Name)
		}
		if seen[pb.Name] {
			return nil, fmt.Errorf("bench: duplicate perf benchmark %q", pb.Name)
		}
		seen[pb.Name] = true
	}
	restore, err := setBenchtime(benchtime)
	if err != nil {
		return nil, err
	}
	defer restore()
	snap := &Snapshot{
		Schema:     SnapshotSchema,
		GitRev:     GitRev(),
		Host:       HostFingerprint(),
		Benchtime:  benchtime,
		Benchmarks: make(map[string]Metrics, len(suite)),
	}
	for _, pb := range suite {
		f := pb.F
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		if res.N == 0 {
			// testing.Benchmark reports N=0 when the benchmark died
			// (b.Fatal); there is no error channel, so fail the run.
			return nil, fmt.Errorf("bench: benchmark %q failed", pb.Name)
		}
		m := Metrics{
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		snap.Benchmarks[pb.Name] = m
		if logf != nil {
			logf("%-28s %12.1f ns/op %8d allocs/op %10d B/op (n=%d)",
				pb.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.N)
		}
	}
	return snap, nil
}
