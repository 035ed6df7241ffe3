package modelstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/model"
)

var testPrec = core.Precision{MinReps: 3, MaxReps: 8, Confidence: 0.95, RelErr: 0.05}

func testKey(tenant, device string) Key {
	return Key{
		Tenant: tenant, Device: device,
		Seed: 7, Noise: 0.02,
		Lo: 16, Hi: 5000, N: 20,
		Prec: EncodePrecision(testPrec),
	}
}

// awkwardPoints exercises full-precision round-tripping: times with no
// short decimal representation, a zero time, and a zero CI.
func awkwardPoints() []core.Point {
	return []core.Point{
		{D: 16, Time: 1.0 / 3.0, Reps: 3, CI: 1e-9 / 7.0},
		{D: 64, Time: 0, Reps: 1, CI: 0},
		{D: 256, Time: math.Nextafter(0.001, 1), Reps: 8, CI: 2.0 / 3.0 * 1e-6},
		{D: 5000, Time: 123.456789012345678, Reps: 5, CI: 0.1},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("tenant with spaces|and|pipes", "machine:abc/0")
	pts := awkwardPoints()
	if err := s.Put(key, "gemm-b128", pts); err != nil {
		t.Fatal(err)
	}
	e, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if e.Key != key {
		t.Errorf("key round trip: got %+v want %+v", e.Key, key)
	}
	if e.Kernel != "gemm-b128" {
		t.Errorf("kernel = %q", e.Kernel)
	}
	if len(e.Points) != len(pts) {
		t.Fatalf("%d points, want %d", len(e.Points), len(pts))
	}
	for i, p := range e.Points {
		if p != pts[i] {
			t.Errorf("point %d: %+v != %+v (lossy round trip)", i, p, pts[i])
		}
	}
}

func TestGetAbsent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(testKey("a", "fast")); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v, want false/nil", ok, err)
	}
}

// TestDistinctKeysDistinctFiles: seed and precision are part of the key, so
// three keys differing only there are three entries.
func TestDistinctKeysDistinctFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testKey("a", "fast")
	b := a
	b.Seed++
	c := a
	c.Prec = EncodePrecision(core.DefaultPrecision)
	pts := awkwardPoints()
	for _, k := range []Key{a, b, c} {
		if err := s.Put(k, "gemm-b128", pts); err != nil {
			t.Fatal(err)
		}
	}
	entries, corrupt, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("unexpected corrupt entries: %v", corrupt)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3 (seed and precision must be part of the key)", len(entries))
	}
}

// TestTruncationDetected chops the entry file at every byte boundary and
// asserts the store never returns data from a torn file: every truncation
// is either reported corrupt or (at full length) intact — no silent
// partial sweeps.
func TestTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("a", "fast")
	if err := s.Put(key, "gemm-b128", awkwardPoints()); err != nil {
		t.Fatal(err)
	}
	path := s.Path(key)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(key); err == nil && ok {
			t.Fatalf("truncation at %d/%d bytes went undetected", cut, len(full))
		}
		entries, corrupt, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("Load returned %d entries from a file truncated at %d bytes", len(entries), cut)
		}
		if len(corrupt) != 1 {
			t.Fatalf("Load reported %d corrupt files at cut %d, want 1", len(corrupt), cut)
		}
	}
	// Restoring the full bytes heals the entry.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); !ok || err != nil {
		t.Fatalf("full file: ok=%v err=%v", ok, err)
	}
}

// TestPutHealsCorrupt: a re-Put over a torn entry cuts the torn tail and
// appends the replacement.
func TestPutHealsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("a", "fast")
	pts := awkwardPoints()
	if err := s.Put(key, "gemm-b128", pts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(key), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("truncated entry served")
	}
	if err := s.Put(key, "gemm-b128", pts); err != nil {
		t.Fatal(err)
	}
	e, ok, err := s.Get(key)
	if !ok || err != nil {
		t.Fatalf("after heal: ok=%v err=%v", ok, err)
	}
	if len(e.Points) != len(pts) {
		t.Errorf("healed entry has %d points, want %d", len(e.Points), len(pts))
	}
}

// TestStoreFileIsAPointsFile: any tool speaking the points-file format can
// read a store entry directly — the extra store headers are ignored.
func TestStoreFileIsAPointsFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("a", "fast")
	pts := awkwardPoints()
	if err := s.Put(key, "gemm-b128", pts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := model.ReadPoints(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("store entry is not a valid points file: %v", err)
	}
	if pf.Kernel != "gemm-b128" || pf.Device != key.Device {
		t.Errorf("headers: kernel=%q device=%q", pf.Kernel, pf.Device)
	}
	if len(pf.Points) != len(pts) {
		t.Errorf("%d points, want %d", len(pf.Points), len(pts))
	}
}

func TestLoadSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("a", "fast"), "gemm-b128", awkwardPoints()); err != nil {
		t.Fatal(err)
	}
	// A hand-dropped plain points file has no store key: corrupt, not data.
	var buf bytes.Buffer
	if err := model.WritePoints(&buf, model.PointFile{Kernel: "k", Device: "d", Points: awkwardPoints()}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "foreign.points"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, corrupt, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d entries, want 1", len(entries))
	}
	if len(corrupt) != 1 || !strings.Contains(corrupt[0].Err.Error(), "store key") {
		t.Errorf("corrupt = %v, want the foreign file flagged", corrupt)
	}
}

func TestKeyValidation(t *testing.T) {
	good := testKey("a", "fast")
	cases := []func(*Key){
		func(k *Key) { k.Tenant = "" },
		func(k *Key) { k.Device = "" },
		func(k *Key) { k.Lo = 0 },
		func(k *Key) { k.Hi = k.Lo - 1 },
		func(k *Key) { k.N = 0 },
		func(k *Key) { k.Prec = "" },
		func(k *Key) { k.Prec = "not-a-precision" },
	}
	for i, mutate := range cases {
		k := good
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: bad key validated: %+v", i, k)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good key rejected: %v", err)
	}
}

func TestPrecisionRoundTrip(t *testing.T) {
	for _, p := range []core.Precision{
		testPrec,
		core.DefaultPrecision,
		{MinReps: 1, MaxReps: 1, Confidence: 0.99, RelErr: 1.0 / 3.0, MaxSeconds: 0.1, Warmup: 2},
	} {
		got, err := DecodePrecision(EncodePrecision(p))
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got != p {
			t.Errorf("precision round trip: %+v != %+v", got, p)
		}
	}
}

// TestEntryBytes pins an entry's encoding byte for byte, transfer header
// and all: files written by earlier versions of the store must keep
// reading as intact entries, and only these exact bytes are served.
func TestEntryBytes(t *testing.T) {
	k := testKey("tenant with spaces|and|pipes", "machine:abc/0")
	pts := []core.Point{{D: 16, Time: 1.0 / 3.0, Reps: 3, CI: 1e-9 / 7.0}, {D: 5000, Time: 123.456789012345678, Reps: 5, CI: 0.1}}
	const head = "# store: tenant+with+spaces%7Cand%7Cpipes|machine%3Aabc%2F0|7|0.02|16|5000|20|3%3A8%3A0.95%3A0.05%3A0%3A0\n"
	const body = "# fupermod points v1\n# kernel: gemm-b128\n# device: machine:abc/0\n# columns: d time reps ci\n" +
		"16 0.3333333333333333 3 1.4285714285714285e-10\n5000 123.45678901234568 5 0.1\n# end: 2\n"
	for prov, want := range map[string]string{
		"": head + body,
		"donor=x/y/seed=1 scale=2.5 probes=6/40 maxdiff=0.01": head + "# transfer: donor=x/y/seed=1 scale=2.5 probes=6/40 maxdiff=0.01\n" + body,
	} {
		got, err := encode(k, "gemm-b128", pts, prov)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("provenance %q: encoded\n%q\nwant\n%q", prov, got, want)
		}
	}
}
