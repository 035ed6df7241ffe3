package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden byte-compares got against testdata/<name>, rewriting the
// golden file instead when the test binary runs with -update (the same
// pattern as internal/trace).
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
		t.Fatalf("missing golden file (run go test ./internal/service -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// sentinelSnapshot fills every Snapshot field with a distinct value, so a
// field accidentally dropped from the JSON schema (or serialised under the
// wrong key) changes the golden bytes. The filler recurses into embedded
// structs (ShardCounters) and slices (the per-shard breakdown gets two
// sentinel elements, so per-shard keys are pinned too).
func sentinelSnapshot(t *testing.T) Snapshot {
	var snap Snapshot
	fillSentinel(t, reflect.ValueOf(&snap).Elem(), 0)
	return snap
}

// fillSentinel writes a distinct sentinel into every leaf field of v,
// returning the next counter value.
func fillSentinel(t *testing.T, v reflect.Value, n int) int {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n = fillSentinel(t, v.Field(i), n)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			n = fillSentinel(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Int64:
		v.SetInt(int64(1000 + n))
		n++
	case reflect.Int:
		v.SetInt(int64(100 + n))
		n++
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
		n++
	case reflect.Bool:
		v.SetBool(n%2 == 0)
		n++
	case reflect.Map:
		v.Set(reflect.ValueOf(map[string]int64{"tenant-a": 7, "tenant-b": 3}))
		n++
	default:
		t.Fatalf("Snapshot field of kind %s: teach fillSentinel about it", v.Kind())
	}
	return n
}

// TestStatsGolden pins the /stats JSON schema: every field name, rendered
// with sorted keys. Adding a counter must be a deliberate act — this test
// plus a -update run — never a silent schema change.
func TestStatsGolden(t *testing.T) {
	raw, err := json.Marshal(sentinelSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	// Re-marshal through a map: Go serialises map keys sorted, giving a
	// stable, diff-friendly golden file regardless of struct field order.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats.json", append(sorted, '\n'))
}

// TestStatsEndpointMatchesSchema: the live endpoint serves exactly the
// golden schema's keys — no extras, none missing (omitempty fields are
// exercised above but may be absent on an idle server).
func TestStatsEndpointMatchesSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := postRaw(ts.URL+"/v1/measure", MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	raw, err := json.Marshal(sentinelSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var res map[string]any
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	for k := range res {
		if _, ok := want[k]; !ok {
			t.Errorf("/stats serves key %q missing from the golden schema", k)
		}
	}
	for k := range want {
		if _, ok := res[k]; !ok && k != "quota_rejections_by_tenant" {
			t.Errorf("/stats is missing schema key %q", k)
		}
	}
}

// TestCountersCarryEveryField: every exported shardStats counter reaches
// the ShardCounters field of its own name through counters(), and add()
// sums each field into itself — a counter wired to the wrong field, or to
// none, fails here.
func TestCountersCarryEveryField(t *testing.T) {
	var s shardStats
	sv := reflect.ValueOf(&s).Elem()
	want := map[string]int64{}
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.IsExported() && f.Type == reflect.TypeFor[atomic.Int64]() {
			want[f.Name] = int64(1000 + i)
			sv.Field(i).Addr().Interface().(*atomic.Int64).Store(want[f.Name])
		}
	}
	c := s.counters()
	var sum ShardCounters
	sum.add(c)
	sum.add(c)
	cv, sumv := reflect.ValueOf(c), reflect.ValueOf(sum)
	published := 0
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		published++
		if got := cv.Field(i).Int(); got != want[f.Name] {
			t.Errorf("counters().%s = %d, want %d", f.Name, got, want[f.Name])
		}
		if got := sumv.Field(i).Int(); got != 2*want[f.Name] {
			t.Errorf("two add()s of %s = %d, want %d", f.Name, got, 2*want[f.Name])
		}
	}
	if published != len(want) {
		t.Errorf("ShardCounters publishes %d counters, shardStats declares %d", published, len(want))
	}
}
