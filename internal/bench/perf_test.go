package bench

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden byte-compares got against testdata/<name>, rewriting the
// golden file instead when the test binary runs with -update (the same
// pattern as internal/trace and internal/service).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/bench -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// fillSentinel fills every field of a struct with a distinct non-zero
// value via reflection, so a field accidentally dropped from the JSON
// schema (or serialised under the wrong key, or newly added without a
// golden update) changes the golden bytes — and a field of an untaught
// kind fails loudly.
func fillSentinel(t *testing.T, v reflect.Value, base int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(base + i))
		case reflect.Float64:
			f.SetFloat(float64(base+i) + 0.5)
		case reflect.String:
			f.SetString(strings.ToLower(name) + "-sentinel")
		case reflect.Struct:
			fillSentinel(t, f, base+10*(i+1))
		case reflect.Map:
			if f.Type() != reflect.TypeOf(map[string]Metrics(nil)) {
				t.Fatalf("field %s has unexpected map type %s: teach fillSentinel about it", name, f.Type())
			}
			var m Metrics
			fillSentinel(t, reflect.ValueOf(&m).Elem(), base+100)
			f.Set(reflect.ValueOf(map[string]Metrics{"area/benchmark": m}))
		default:
			t.Fatalf("Snapshot field %s has kind %s: teach fillSentinel about it", name, f.Kind())
		}
	}
}

func sentinelSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	var s Snapshot
	fillSentinel(t, reflect.ValueOf(&s).Elem(), 100)
	s.Schema = SnapshotSchema // must stay valid
	return &s
}

// TestSnapshotGolden pins the BENCH_<n>.json schema: every field name,
// nesting and the indented rendering. Changing the snapshot format must
// be a deliberate act — a SnapshotSchema bump plus a -update run — never
// a silent drift that strands the committed trajectory files.
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sentinelSnapshot(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", buf.Bytes())
}

// TestSnapshotRoundTrip: Encode → DecodeSnapshot reproduces the snapshot
// exactly, and the golden file itself decodes (so the committed BENCH
// files stay machine-readable).
func TestSnapshotRoundTrip(t *testing.T) {
	want := sentinelSnapshot(t)
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the snapshot:\n%+v\n%+v", got, want)
	}

	f, err := os.Open(filepath.Join("testdata", "snapshot.json"))
	if err != nil {
		t.Fatalf("golden file unreadable (run go test ./internal/bench -update): %v", err)
	}
	defer f.Close()
	if _, err := DecodeSnapshot(f); err != nil {
		t.Errorf("golden snapshot does not decode: %v", err)
	}
}

func validSnapshot(names ...string) *Snapshot {
	s := &Snapshot{Schema: SnapshotSchema, GitRev: "abc", Host: HostFingerprint(),
		Benchmarks: map[string]Metrics{}}
	for i, n := range names {
		s.Benchmarks[n] = Metrics{N: 10, NsPerOp: float64(100 * (i + 1)), AllocsPerOp: int64(i), BytesPerOp: int64(64 * i)}
	}
	return s
}

func TestDecodeSnapshotErrors(t *testing.T) {
	cases := []struct {
		name   string
		in     string
		schema bool // expect ErrSchemaMismatch
	}{
		{"malformed", `{"schema":`, false},
		{"unknown field", `{"schema":1,"bogus":true}`, false},
		{"wrong schema", `{"schema":99,"git_rev":"x","host":{"os":"linux","arch":"amd64","cpus":1,"go":"go1"},"benchmarks":{"a/b":{"n":1,"ns_per_op":1,"allocs_per_op":0,"bytes_per_op":0}}}`, true},
		{"no benchmarks", `{"schema":1,"git_rev":"x","host":{"os":"l","arch":"a","cpus":1,"go":"g"},"benchmarks":{}}`, false},
		{"zero iterations", `{"schema":1,"git_rev":"x","host":{"os":"l","arch":"a","cpus":1,"go":"g"},"benchmarks":{"a/b":{"n":0,"ns_per_op":1,"allocs_per_op":0,"bytes_per_op":0}}}`, false},
		{"negative metric", `{"schema":1,"git_rev":"x","host":{"os":"l","arch":"a","cpus":1,"go":"g"},"benchmarks":{"a/b":{"n":1,"ns_per_op":-1,"allocs_per_op":0,"bytes_per_op":0}}}`, false},
	}
	for _, tc := range cases {
		_, err := DecodeSnapshot(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if got := errors.Is(err, ErrSchemaMismatch); got != tc.schema {
			t.Errorf("%s: ErrSchemaMismatch = %v, want %v (err: %v)", tc.name, got, tc.schema, err)
		}
	}
}

func TestDiff(t *testing.T) {
	old := validSnapshot("a/x", "a/y", "b/z")

	t.Run("identical snapshots pass", func(t *testing.T) {
		regs, err := Diff(old, old, 1.3)
		if err != nil || len(regs) != 0 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
	})

	t.Run("ns regression past threshold", func(t *testing.T) {
		niu := validSnapshot("a/x", "a/y", "b/z")
		m := niu.Benchmarks["a/y"]
		m.NsPerOp *= 2
		niu.Benchmarks["a/y"] = m
		regs, err := Diff(old, niu, 1.3)
		if err != nil || len(regs) != 1 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
		if regs[0].Name != "a/y" || regs[0].Metric != "ns/op" {
			t.Errorf("unexpected regression: %v", regs[0])
		}
		if !strings.Contains(regs[0].String(), "a/y") {
			t.Errorf("String() should name the benchmark: %s", regs[0])
		}
	})

	t.Run("slowdown within threshold passes", func(t *testing.T) {
		niu := validSnapshot("a/x", "a/y", "b/z")
		m := niu.Benchmarks["a/y"]
		m.NsPerOp *= 1.2
		niu.Benchmarks["a/y"] = m
		regs, err := Diff(old, niu, 1.3)
		if err != nil || len(regs) != 0 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
	})

	t.Run("alloc regression honours one-alloc slack", func(t *testing.T) {
		// a/x has 0 allocs in old: going to 1 is inside the GC-jitter
		// slack, 2 is a regression.
		niu := validSnapshot("a/x", "a/y", "b/z")
		m := niu.Benchmarks["a/x"]
		m.AllocsPerOp = 1
		niu.Benchmarks["a/x"] = m
		if regs, err := Diff(old, niu, 1.3); err != nil || len(regs) != 0 {
			t.Fatalf("0->1 allocs should pass: regs=%v err=%v", regs, err)
		}
		m.AllocsPerOp = 2
		niu.Benchmarks["a/x"] = m
		regs, err := Diff(old, niu, 1.3)
		if err != nil || len(regs) != 1 || regs[0].Metric != "allocs/op" {
			t.Fatalf("0->2 allocs should regress: regs=%v err=%v", regs, err)
		}
	})

	t.Run("missing benchmark is a regression", func(t *testing.T) {
		niu := validSnapshot("a/x", "a/y")
		regs, err := Diff(old, niu, 1.3)
		if err != nil || len(regs) != 1 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
		if regs[0].Name != "b/z" || regs[0].Metric != "missing" {
			t.Errorf("unexpected regression: %v", regs[0])
		}
	})

	t.Run("extra benchmark in new is fine", func(t *testing.T) {
		niu := validSnapshot("a/x", "a/y", "b/z", "c/new")
		if regs, err := Diff(old, niu, 1.3); err != nil || len(regs) != 0 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
	})

	t.Run("threshold must exceed 1", func(t *testing.T) {
		if _, err := Diff(old, old, 1.0); err == nil {
			t.Error("threshold 1.0 should error")
		}
		if _, err := Diff(old, old, 0.5); err == nil {
			t.Error("threshold 0.5 should error")
		}
	})

	t.Run("schema mismatch refuses", func(t *testing.T) {
		bad := validSnapshot("a/x")
		bad.Schema = SnapshotSchema + 1
		if _, err := Diff(old, bad, 1.3); !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("want ErrSchemaMismatch, got %v", err)
		}
		if _, err := Diff(bad, old, 1.3); !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("want ErrSchemaMismatch, got %v", err)
		}
	})
}

// TestRunPerfReportsAllocs: RunPerf wraps every benchmark with
// b.ReportAllocs(), so allocation stats are real for the whole suite even
// when a benchmark body forgets to ask for them — the property the
// committed trajectory relies on for allocs/op comparisons.
func TestTrend(t *testing.T) {
	setNs := func(s *Snapshot, name string, ns float64) {
		m := s.Benchmarks[name]
		m.NsPerOp = ns
		s.Benchmarks[name] = m
	}

	t.Run("rejects short or invalid sequences", func(t *testing.T) {
		if _, err := Trend(nil); err == nil {
			t.Error("nil sequence should error")
		}
		if _, err := Trend([]*Snapshot{validSnapshot("a/x")}); err == nil {
			t.Error("single snapshot should error")
		}
		bad := validSnapshot("a/x")
		bad.Schema = 99
		if _, err := Trend([]*Snapshot{validSnapshot("a/x"), bad}); !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("invalid snapshot in sequence: err = %v, want schema mismatch", err)
		}
	})

	t.Run("union rows with ratios over tracked span", func(t *testing.T) {
		// a/x tracked throughout and halves; b/y appears mid-sequence;
		// c/z is dropped after the first snapshot (tracked once -> NaN ratio).
		s1 := validSnapshot("a/x", "c/z")
		setNs(s1, "a/x", 200)
		s2 := validSnapshot("a/x", "b/y")
		setNs(s2, "a/x", 150)
		setNs(s2, "b/y", 80)
		s3 := validSnapshot("a/x", "b/y")
		setNs(s3, "a/x", 100)
		setNs(s3, "b/y", 120)

		rows, err := Trend([]*Snapshot{s1, s2, s3})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("got %d rows, want 3 (union of names)", len(rows))
		}
		byName := map[string]TrendRow{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		ax := byName["a/x"]
		if want := []float64{200, 150, 100}; !reflect.DeepEqual(ax.NsPerOp, want) {
			t.Errorf("a/x series = %v, want %v", ax.NsPerOp, want)
		}
		if ax.Ratio != 0.5 {
			t.Errorf("a/x ratio = %g, want 0.5", ax.Ratio)
		}
		by := byName["b/y"]
		if !math.IsNaN(by.NsPerOp[0]) || by.NsPerOp[1] != 80 || by.NsPerOp[2] != 120 {
			t.Errorf("b/y series = %v, want [NaN 80 120]", by.NsPerOp)
		}
		if by.Ratio != 1.5 {
			t.Errorf("b/y ratio = %g, want 1.5 (last tracked over first tracked)", by.Ratio)
		}
		cz := byName["c/z"]
		if !math.IsNaN(cz.Ratio) {
			t.Errorf("c/z tracked once: ratio = %g, want NaN", cz.Ratio)
		}
		if rows[0].Name != "a/x" || rows[1].Name != "b/y" || rows[2].Name != "c/z" {
			t.Errorf("rows not sorted by name: %v %v %v", rows[0].Name, rows[1].Name, rows[2].Name)
		}
	})
}

func TestRunPerfReportsAllocs(t *testing.T) {
	var escape []byte // package-scope-like sink: forces the slice to heap
	suite := []PerfBenchmark{{
		Name: "test/allocating",
		F: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				escape = make([]byte, 1024)
			}
		},
	}}
	snap, err := RunPerf(suite, "10x", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Benchmarks["test/allocating"]
	if m.N == 0 || len(escape) != 1024 {
		t.Fatal("benchmark did not run")
	}
	if m.AllocsPerOp < 1 {
		t.Errorf("allocs/op = %d; ReportAllocs wrapping is not effective", m.AllocsPerOp)
	}
	if m.BytesPerOp < 1024 {
		t.Errorf("B/op = %d, want >= 1024", m.BytesPerOp)
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("RunPerf produced an invalid snapshot: %v", err)
	}
}

func TestRunPerfRejectsBadSuites(t *testing.T) {
	nop := func(b *testing.B) {}
	if _, err := RunPerf(nil, "1x", nil); err == nil {
		t.Error("empty suite should error")
	}
	if _, err := RunPerf([]PerfBenchmark{{Name: "a/b", F: nop}, {Name: "a/b", F: nop}}, "1x", nil); err == nil {
		t.Error("duplicate names should error")
	}
	if _, err := RunPerf([]PerfBenchmark{{Name: "", F: nop}}, "1x", nil); err == nil {
		t.Error("unnamed benchmark should error")
	}
	if _, err := RunPerf([]PerfBenchmark{{Name: "a/b"}}, "1x", nil); err == nil {
		t.Error("nil body should error")
	}
	if _, err := RunPerf([]PerfBenchmark{{Name: "a/b", F: nop}}, "not-a-benchtime", nil); err == nil {
		t.Error("invalid benchtime should error")
	}
}

// TestPerfSuiteShape: stable names ("area/name"), no duplicates, and
// every optimized benchmark ships with its -ref twin — the convention
// that makes a snapshot carry its own before/after pair.
func TestPerfSuiteShape(t *testing.T) {
	suite := PerfSuite()
	if len(suite) == 0 {
		t.Fatal("empty perf suite")
	}
	names := make(map[string]bool, len(suite))
	for _, pb := range suite {
		if pb.F == nil {
			t.Errorf("%s: nil benchmark body", pb.Name)
		}
		if names[pb.Name] {
			t.Errorf("duplicate name %s", pb.Name)
		}
		names[pb.Name] = true
		if !strings.Contains(pb.Name, "/") {
			t.Errorf("name %q is not area/benchmark", pb.Name)
		}
	}
	for name := range names {
		if base, ok := strings.CutSuffix(name, "-ref"); ok && !names[base] {
			t.Errorf("%s has no optimized counterpart %s", name, base)
		}
	}
	for _, optimized := range []string{"verify/oracle-dp", "model/piecewise-eval",
		"model/write-points", "modelstore/decode"} {
		if !names[optimized] {
			t.Errorf("suite is missing tracked benchmark %s", optimized)
		}
		if !names[optimized+"-ref"] {
			t.Errorf("suite is missing reference twin %s-ref", optimized)
		}
	}
	// The service rows and the model fit are tracked without a twin.
	for _, tracked := range []string{"service/json-roundtrip", "service/batch-key", "model/fit"} {
		if !names[tracked] {
			t.Errorf("suite is missing tracked benchmark %s", tracked)
		}
	}
}

// TestRunPerfSuiteSmoke runs the real micro suite once (benchtime "1x"):
// every tracked benchmark must complete and produce a valid snapshot.
// This is the test-side half of `make perf-smoke`.
func TestRunPerfSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf suite smoke is not short")
	}
	snap, err := RunPerf(PerfSuite(), "1x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != len(PerfSuite()) {
		t.Errorf("snapshot has %d benchmarks, suite has %d", len(snap.Benchmarks), len(PerfSuite()))
	}
}
